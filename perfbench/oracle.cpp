// pb-oracle: re-runs campaign records and reducer bundles through the
// tree-walk oracle (vgpu::run_kernel_tree) for the benchmark's output
// checker.  It prints raw results only — IEEE bits and %.17g text per
// platform — and leaves every verdict to the checker's own taxonomy.
//
//   pb-oracle REQUEST.json
//
// REQUEST: {"report": path, "tuples": [[program, input, "O2"], ...],
//           "bundles": [path, ...], "minimality": [path, ...]}
// One JSON document per line on stdout:
//   {"kind": "tuple", "key": "p:i:L", "bits": [...], "printed": [...]}
//   {"kind": "bundle", "path": ..., "record": "p:i:L", "verdict": [...],
//    "precision": "FP64", "bits": [...], "printed": [...],
//    "drops": [{"broken": true} | {"bits": [...]}, ...]}   (minimality only)
// A tuple or bundle that cannot be replayed prints {"kind": ..., "error": ...}.
// "drops" holds one entry per pre-order statement of the reduced program:
// the oracle result with that one statement dropped, or broken when the
// drop leaves a dangling temporary or the program faults.

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "ir/mutate.hpp"
#include "ir/serialize.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "support/json.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using support::Json;

std::string hex(std::uint64_t bits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

/// Every platform's oracle result for (program, level, args), as parallel
/// "bits" / "printed" arrays on `out`.  Throws when the program faults.
void oracle_run(const ir::Program& program, const diff::CampaignConfig& config,
                opt::OptLevel level, const vgpu::KernelArgs& args, Json& out) {
  Json bits = Json::array();
  Json printed = Json::array();
  for (const opt::PlatformSpec& spec : config.platforms) {
    const opt::Executable exe =
        opt::compile(program, spec, level, config.hipify_converted);
    const vgpu::RunResult r = vgpu::run_kernel_tree(exe, args);
    bits.push_back(hex(r.value_bits));
    printed.push_back(r.printed());
  }
  out["bits"] = std::move(bits);
  out["printed"] = std::move(printed);
}

void emit(const Json& j) { std::printf("%s\n", j.dump().c_str()); }

void check_tuples(const Json& request) {
  const Json report =
      Json::parse(support::read_file(request.at("report").as_string()));
  const diff::CampaignConfig config =
      campaign::config_from_json(report.at("config"));
  std::map<std::uint64_t, ir::Program> programs;
  for (const Json& t : request.at("tuples").as_array()) {
    const auto& a = t.as_array();
    const auto pi = static_cast<std::uint64_t>(a.at(0).as_int());
    const int ii = static_cast<int>(a.at(1).as_int());
    Json out = Json::object();
    out["kind"] = "tuple";
    out["key"] = std::to_string(pi) + ":" + std::to_string(ii) + ":" +
                 a.at(2).as_string();
    try {
      opt::OptLevel level;
      if (!opt::parse_opt_level(a.at(2).as_string(), &level))
        throw std::runtime_error("bad level " + a.at(2).as_string());
      auto it = programs.find(pi);
      if (it == programs.end())
        it = programs.emplace(pi, reduce::regenerate_program(config, pi)).first;
      const vgpu::KernelArgs args =
          reduce::regenerate_args(config, it->second, pi, ii);
      oracle_run(it->second, config, level, args, out);
    } catch (const std::exception& e) {
      out["error"] = e.what();
    }
    emit(out);
  }
}

void check_bundle(const std::string& path, bool minimality) {
  Json out = Json::object();
  out["kind"] = "bundle";
  out["path"] = path;
  try {
    const Json bundle = reduce::load_bundle(path);
    const diff::CampaignConfig config =
        campaign::config_from_json(bundle.at("config"));
    const ir::Program program = ir::program_from_json(bundle.at("program"));
    const vgpu::KernelArgs args =
        vgpu::KernelArgs::from_json(bundle.at("args"), program);
    reduce::RecordRef ref;
    if (!reduce::parse_record_key(bundle.at("record").as_string(), &ref))
      throw std::runtime_error("bad record key in bundle");
    out["record"] = bundle.at("record");
    out["verdict"] = bundle.at("verdict");
    out["precision"] = ir::to_string(program.precision());
    oracle_run(program, config, ref.level, args, out);
    if (minimality) {
      Json drops = Json::array();
      for (const ir::StmtId id : ir::preorder_statements(program)) {
        Json d = Json::object();
        const std::optional<ir::Program> cand = reduce::drop_statement(program, id);
        if (!cand) {
          d["broken"] = true;
        } else {
          try {
            oracle_run(*cand, config, ref.level, args, d);
          } catch (const std::exception&) {
            d = Json::object();
            d["broken"] = true;
          }
        }
        drops.push_back(std::move(d));
      }
      out["drops"] = std::move(drops);
    }
  } catch (const std::exception& e) {
    out["error"] = e.what();
  }
  emit(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: pb-oracle REQUEST.json\n");
    return 2;
  }
  try {
    const Json request = Json::parse(support::read_file(argv[1]));
    if (request.contains("report")) check_tuples(request);
    if (request.contains("bundles"))
      for (const Json& p : request.at("bundles").as_array())
        check_bundle(p.as_string(), false);
    if (request.contains("minimality"))
      for (const Json& p : request.at("minimality").as_array())
        check_bundle(p.as_string(), true);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb-oracle: %s\n", e.what());
    return 2;
  }
}
