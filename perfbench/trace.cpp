// pb-trace: the benchmark's traced run.
//
// Replays the campaign loop of each given CLI report on one thread through
// the library's public calls — generate, compile, lower, execute, classify,
// record — recording a span (name, start, end, parent) around every call
// and counts at the same boundaries.  diff::compare_batch is reproduced
// from vgpu::run_kernel_batch plus diff::classify_pair so execution and
// classification get spans of their own.  The replayed per-level stats
// must equal the report's (reconciliation); the traced report, rendered
// with campaign::results_to_json, is written next to the spans so the
// caller can compare it byte for byte.  Each report is then triaged the
// way gpudiff-serve --ingest and gpudiff-reduce --from-report do it.
//
//   pb-trace --out DIR REPORT.json [REPORT.json ...]
//
// Writes DIR/spans.tsv (id, parent, name, start_ns, end_ns; parent -1 for
// roots), DIR/counts.json, DIR/<report> (the traced report),
// DIR/store/ and DIR/bundles/<report stem>/.  Spans stay in memory until
// the end.  Exit 0 when every report reconciles, 1 when one does not,
// 2 on errors.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "diff/campaign.hpp"
#include "diff/discrepancy.hpp"
#include "diff/runner.hpp"
#include "fp/classify.hpp"
#include "fp/bits.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/cpu.hpp"
#include "support/json.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::int32_t parent;
    std::int32_t name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// RAII span: opened on construction, closed on destruction; the span
  /// open on this tracer when it starts is its parent.
  class Scope {
   public:
    Scope(Tracer& t, std::int32_t name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

  std::int32_t name_id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<std::int32_t>(i);
    names_.push_back(name);
    return static_cast<std::int32_t>(names_.size() - 1);
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\n", i, s.parent,
                   names_[static_cast<std::size_t>(s.name)].c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::int32_t open(std::int32_t name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({parent, name, now_ns(), 0});
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Counts recorded at the span boundaries (plain fields: they are bumped
/// inside the replay loop).
struct Counts {
  std::uint64_t programs = 0, gen_nodes = 0;
  std::uint64_t compiles = 0, nodes_out = 0, insns = 0;
  std::uint64_t runs = 0, ops = 0, cycles = 0, lane_programs = 0;
  std::uint64_t lane_group_inputs = 0, scalar_inputs = 0;
  std::uint64_t comparisons = 0, discrepancies = 0, records = 0;
  std::uint64_t report_bytes = 0, store_bytes = 0;
  std::uint64_t reduce_records = 0, reduce_checks = 0;
  std::uint64_t stmts_in = 0, stmts_out = 0, bundle_bytes = 0;
};

/// Lane width run_batch uses for full groups of a lane-profitable program
/// under the resolved engine (0: every input runs on the scalar path) —
/// the dispatch rule of BytecodeProgram::run_batch.
std::size_t lane_width(const vgpu::BytecodeProgram& bc) {
  if (support::simd_override() == support::SimdOverride::Auto &&
      !bc.lane_profitable())
    return 0;
  const bool fp32 = bc.precision() == ir::Precision::FP32;
  switch (vgpu::simd_engine()) {
    case vgpu::SimdEngine::Off: return 0;
    case vgpu::SimdEngine::Scalar1: return 1;
    case vgpu::SimdEngine::Scalar:
    case vgpu::SimdEngine::Avx2: return fp32 ? 8 : 4;
  }
  return 0;
}

fp::Outcome outcome_of_bits(std::uint64_t bits, ir::Precision precision) {
  if (precision == ir::Precision::FP32)
    return fp::outcome_of(fp::from_bits<float>(static_cast<std::uint32_t>(bits)));
  return fp::outcome_of(fp::from_bits<double>(bits));
}

struct Names {
  std::int32_t campaign, program, generate, inputs, level, compile, lower,
      exec, classify, record, report, ingest, reduce;
};

/// The campaign loop of diff::run_campaign_range on one thread, with a
/// span around every layer call.
diff::CampaignResults replay(const diff::CampaignConfig& config, Tracer& tr,
                             const Names& n, Counts& c) {
  const Tracer::Scope campaign_span(tr, n.campaign);
  const std::size_t n_platforms = config.platforms.size();
  const gen::Generator generator(config.gen, config.seed);
  const gen::InputGenerator input_gen(config.seed);

  diff::CampaignResults results;
  results.seed = config.seed;
  results.precision = config.gen.precision;
  results.hipify_converted = config.hipify_converted;
  results.num_programs = config.num_programs;
  results.inputs_per_program = config.inputs_per_program;
  results.platforms = opt::platform_names(config.platforms);
  results.levels = config.levels;
  results.per_level.assign(config.levels.size(),
                           diff::LevelStats::zero(n_platforms));

  vgpu::ExecContext exec;
  std::vector<std::vector<vgpu::RunResult>> runs(n_platforms);
  std::vector<fp::Outcome> outcomes(n_platforms);
  const auto n_inputs = static_cast<std::size_t>(config.inputs_per_program);

  for (int pi_int = 0; pi_int < config.num_programs; ++pi_int) {
    const Tracer::Scope program_span(tr, n.program);
    const auto pi = static_cast<std::uint64_t>(pi_int);
    ir::Program program;
    {
      const Tracer::Scope s(tr, n.generate);
      program = generator.generate(pi);
    }
    ++c.programs;
    c.gen_nodes += program.node_count();
    std::vector<vgpu::KernelArgs> inputs;
    {
      const Tracer::Scope s(tr, n.inputs);
      inputs.reserve(n_inputs);
      for (std::size_t ii = 0; ii < n_inputs; ++ii)
        inputs.push_back(input_gen.generate(program, pi, static_cast<int>(ii)));
    }

    std::vector<std::pair<std::size_t, diff::DiscrepancyRecord>> found;
    for (std::size_t li = 0; li < config.levels.size(); ++li) {
      const Tracer::Scope level_span(tr, n.level);
      diff::CompiledSet set;
      {
        const Tracer::Scope s(tr, n.compile);
        set = diff::compile_set(program, config.platforms, config.levels[li],
                                config.hipify_converted);
      }
      {
        // Lower eagerly (run_kernel_batch would do it lazily on first use)
        // so lowering gets a span of its own.
        const Tracer::Scope s(tr, n.lower);
        for (opt::Executable& exe : set.exes)
          exe.bytecode_cache = std::make_shared<const vgpu::BytecodeProgram>(
              vgpu::compile_bytecode(exe.program, exe.env, exe.mathlib));
      }
      c.compiles += set.size();
      for (const opt::Executable& exe : set.exes) {
        c.nodes_out += exe.program.node_count();
        const vgpu::BytecodeProgram& bc = *exe.bytecode_cache;
        c.insns += bc.insn_count();
        const std::size_t w = lane_width(bc);
        if (bc.lane_profitable()) ++c.lane_programs;
        const std::size_t grouped = w == 0 ? 0 : n_inputs / w * w;
        c.lane_group_inputs += grouped;
        c.scalar_inputs += n_inputs - grouped;
      }
      {
        const Tracer::Scope s(tr, n.exec);
        for (std::size_t p = 0; p < n_platforms; ++p) {
          runs[p].resize(n_inputs);
          vgpu::run_kernel_batch(set.exes[p], inputs, runs[p].data(), exec);
        }
      }
      for (std::size_t p = 0; p < n_platforms; ++p)
        for (const vgpu::RunResult& r : runs[p]) {
          c.ops += r.op_count;
          c.cycles += r.cycle_count;
        }
      c.runs += n_platforms * n_inputs;

      diff::LevelStats& stats = results.per_level[li];
      std::vector<std::array<diff::DiscrepancyClass, opt::kMaxPlatforms>> cls(
          n_inputs);
      std::vector<std::size_t> discrepant;
      {
        const Tracer::Scope s(tr, n.classify);
        const ir::Precision prec = set.precision();
        for (std::size_t ii = 0; ii < n_inputs; ++ii) {
          ++stats.comparisons;
          for (std::size_t p = 0; p < n_platforms; ++p)
            outcomes[p] = outcome_of_bits(runs[p][ii].value_bits, prec);
          bool any = false;
          cls[ii][0] = diff::DiscrepancyClass::None;
          for (std::size_t p = 1; p < n_platforms; ++p) {
            const diff::DiscrepancyClass k =
                diff::classify_pair(outcomes[0], runs[0][ii].value_bits,
                                    outcomes[p], runs[p][ii].value_bits);
            cls[ii][p] = k;
            if (k == diff::DiscrepancyClass::None) continue;
            any = true;
            diff::PairStats& pair = stats.pairs[p - 1];
            ++pair.class_counts[static_cast<std::size_t>(diff::class_index(k))];
            ++pair.adjacency[static_cast<int>(outcomes[0].cls)]
                            [static_cast<int>(outcomes[p].cls)];
            ++c.discrepancies;
          }
          if (any) discrepant.push_back(ii);
        }
      }
      c.comparisons += n_inputs;
      {
        const Tracer::Scope s(tr, n.record);
        const ir::Precision prec = set.precision();
        for (const std::size_t ii : discrepant) {
          diff::DiscrepancyRecord rec;
          rec.program_index = pi;
          rec.input_index = static_cast<int>(ii);
          rec.level = config.levels[li];
          rec.cls = diff::DiscrepancyClass::None;
          for (std::size_t p = 0; p < n_platforms; ++p) {
            rec.outcomes.push_back(outcome_of_bits(runs[p][ii].value_bits, prec));
            rec.printed.push_back(fp::print_g17(runs[p][ii].value));
            rec.pair_cls.push_back(cls[ii][p]);
            if (rec.cls == diff::DiscrepancyClass::None) rec.cls = cls[ii][p];
          }
          found.emplace_back(li, std::move(rec));
        }
      }
    }
    std::stable_sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
      if (a.second.input_index != b.second.input_index)
        return a.second.input_index < b.second.input_index;
      return a.first < b.first;
    });
    for (auto& [li, rec] : found) {
      if (results.records.size() >= config.max_records) break;
      results.records.push_back(std::move(rec));
    }
  }
  c.records += results.records.size();
  return results;
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  std::vector<std::string> reports;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc)
      out = argv[++i];
    else
      reports.push_back(arg);
  }
  if (out.empty() || reports.empty()) {
    std::fprintf(stderr, "usage: pb-trace --out DIR REPORT.json...\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(out);
    Tracer tr;
    const Names n{tr.name_id("campaign"),      tr.name_id("program"),
                  tr.name_id("gen.generate"),  tr.name_id("gen.inputs"),
                  tr.name_id("level"),         tr.name_id("opt.compile"),
                  tr.name_id("opt.lower"),     tr.name_id("vgpu.exec"),
                  tr.name_id("diff.classify"), tr.name_id("diff.record"),
                  tr.name_id("campaign.report"), tr.name_id("store.ingest"),
                  tr.name_id("reduce.record")};
    Counts c;
    bool reconciled = true;
    std::vector<double> record_s;
    const std::string store_dir = out + "/store";

    for (const std::string& report_path : reports) {
      const support::Json report =
          support::Json::parse(support::read_file(report_path));
      const diff::CampaignConfig config =
          campaign::config_from_json(report.at("config"));
      const diff::CampaignResults untraced = campaign::results_from_json(report);
      const diff::CampaignResults traced = replay(config, tr, n, c);
      if (traced.per_level != untraced.per_level) {
        std::fprintf(stderr, "pb-trace: %s: per-level stats differ from the "
                     "traced replay\n", report_path.c_str());
        reconciled = false;
      }

      const std::string name =
          std::filesystem::path(report_path).filename().string();
      const std::string stem = std::filesystem::path(report_path).stem().string();
      const std::string traced_path = out + "/" + name;
      {
        const Tracer::Scope s(tr, n.report);
        const support::Json echo = campaign::config_to_json(config);
        const std::string text =
            campaign::results_to_json(traced, &echo).dump(1) + "\n";
        support::write_file_atomic(traced_path, text);
        c.report_bytes += text.size();
      }

      // Triage, as gpudiff-serve --ingest + gpudiff-reduce --from-report.
      {
        const Tracer::Scope s(tr, n.ingest);
        store::ingest(store_dir, stem, {traced_path});
      }
      const store::StoreIndex index = store::load_store(store_dir);
      const support::Json& pop = store::population(index, stem, "");
      const std::vector<diff::DiscrepancyRecord> exemplars =
          store::resolve_exemplars(pop, report, "population", report_path);
      const std::string bundle_dir = out + "/bundles/" + stem;
      std::filesystem::create_directories(bundle_dir);
      for (const diff::DiscrepancyRecord& rec : exemplars) {
        const reduce::RecordRef ref{rec.program_index, rec.input_index, rec.level};
        const std::int64_t t0 = now_ns();
        std::string text;
        {
          const Tracer::Scope s(tr, n.reduce);
          const reduce::Reduction r = reduce::reduce_record(config, ref);
          text = reduce::bundle_to_json(r, config).dump(1) + "\n";
          support::write_file_atomic(
              bundle_dir + "/" + reduce::bundle_filename(ref), text);
          c.reduce_checks += r.checks;
          c.stmts_in += r.original_stmts;
          c.stmts_out += r.reduced_stmts;
        }
        record_s.push_back(seconds_between(t0, now_ns()));
        ++c.reduce_records;
        c.bundle_bytes += text.size();
      }
    }
    c.store_bytes = tree_bytes(store_dir);

    std::sort(record_s.begin(), record_s.end());
    support::Json j = support::Json::object();
    const auto put = [&](const char* key, std::uint64_t v) {
      j[key] = static_cast<long long>(v);
    };
    put("gen.programs", c.programs);
    put("gen.ir_nodes", c.gen_nodes);
    put("opt.compiles", c.compiles);
    put("opt.ir_nodes_out", c.nodes_out);
    put("opt.bytecode_insns", c.insns);
    put("vgpu.runs", c.runs);
    put("vgpu.ops", c.ops);
    put("vgpu.cycles", c.cycles);
    put("vgpu.lane_programs", c.lane_programs);
    put("vgpu.lane_group_inputs", c.lane_group_inputs);
    put("vgpu.scalar_inputs", c.scalar_inputs);
    put("diff.comparisons", c.comparisons);
    put("diff.discrepancies", c.discrepancies);
    put("diff.records", c.records);
    put("campaign.report_bytes", c.report_bytes);
    put("store.bytes", c.store_bytes);
    put("reduce.records", c.reduce_records);
    put("reduce.checks", c.reduce_checks);
    put("reduce.stmts_in", c.stmts_in);
    put("reduce.stmts_out", c.stmts_out);
    put("reduce.bundle_bytes", c.bundle_bytes);
    j["reduce.record_s_median"] =
        record_s.empty() ? 0.0 : record_s[record_s.size() / 2];
    j["reduce.record_s_max"] = record_s.empty() ? 0.0 : record_s.back();
    j["vm_engine"] = vgpu::to_string(vgpu::simd_engine());
    j["reconciled"] = reconciled;
    support::write_file_atomic(out + "/counts.json", j.dump(1) + "\n");
    tr.write(out + "/spans.tsv");
    return reconciled ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb-trace: %s\n", e.what());
    return 2;
  }
}
