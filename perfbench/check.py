"""Output checker for the campaign benchmark, independent of the program.

It reads the reports and bundles the CLIs wrote and checks them with its
own code: conservation of the counts, the paper's discrepancy taxonomy
(SS IV-B) re-derived from the printed %.17g values, a seeded sample of
comparisons re-run through the tree-walk oracle (pb-oracle prints raw
bits; the verdicts are derived here), bundles replayed through the oracle
and a sample of them checked for 1-minimality.

Every check returns a list of problems; an empty list means it passed.
"""

import json
import os
import random
import struct
import subprocess

# Outcome classes, in the program's numbering.
NAN, INF, ZERO, NUM = 0, 1, 2, 3
NONE = -1
# Paper column order: NaN/Inf, NaN/Zero, NaN/Num, Inf/Zero, Inf/Num,
# Num/Zero, Num/Num.
_PAIR_CLASS = {
    frozenset((NAN, INF)): 0,
    frozenset((NAN, ZERO)): 1,
    frozenset((NAN, NUM)): 2,
    frozenset((INF, ZERO)): 3,
    frozenset((INF, NUM)): 4,
    frozenset((NUM, ZERO)): 5,
}
NUM_NUM = 6
CLASS_COUNT = 7
MAX_EXEMPLARS = 5  # gpudiff-serve's default exemplars per (pair, class)


def outcome_of_printed(text):
    """(class, negative) of a %.17g string."""
    value = float(text)
    negative = text.startswith("-")
    if value != value:
        return NAN, negative
    if value in (float("inf"), float("-inf")):
        return INF, negative
    if value == 0.0:
        return ZERO, negative
    return NUM, negative


def outcome_of_bits(bits, precision):
    """(class, negative) of raw IEEE bits of the given precision."""
    if precision == "FP32":
        sign, exp, man = bits >> 31 & 1, bits >> 23 & 0xFF, bits & 0x7FFFFF
        exp_max = 0xFF
    else:
        sign, exp, man = bits >> 63 & 1, bits >> 52 & 0x7FF, bits & (1 << 52) - 1
        exp_max = 0x7FF
    if exp == exp_max:
        return (NAN if man else INF), bool(sign)
    if exp == 0 and man == 0:
        return ZERO, bool(sign)
    return NUM, bool(sign)  # normal or subnormal: both are Numbers


def _double_bits(text):
    return struct.unpack("<Q", struct.pack("<d", float(text)))[0]


def classify(a_cls, a_bits, b_cls, b_bits):
    """Discrepancy class of one pair of results (NONE when they agree).

    Sign-only differences within a class are excluded; Number vs Number
    counts only when the two values differ bit for bit.
    """
    if a_cls == b_cls:
        return NUM_NUM if a_cls == NUM and a_bits != b_bits else NONE
    return _PAIR_CLASS[frozenset((a_cls, b_cls))]


def classify_printed(a, b):
    """classify() on two %.17g strings (%.17g round-trips a double, and an
    FP32 result is printed widened, so bit equality survives printing)."""
    return classify(outcome_of_printed(a)[0], _double_bits(a),
                    outcome_of_printed(b)[0], _double_bits(b))


def verdict_of_printed(printed):
    return [NONE] + [classify_printed(printed[0], p) for p in printed[1:]]


def verdict_of_bits(hex_bits, precision):
    bits = [int(h, 16) for h in hex_bits]
    cls = [outcome_of_bits(b, precision)[0] for b in bits]
    return [NONE] + [classify(cls[0], bits[0], cls[p], bits[p])
                     for p in range(1, len(bits))]


# --------------------------------------------------------------------------
# Reports


def platforms_of(report):
    return report.get("platforms", ["nvcc", "hipcc"])


def level_pairs(level):
    """The per-pair stats of one per_level entry, in both report layouts."""
    if "pairs" in level:
        return level["pairs"]
    return [{"class_counts": level["class_counts"],
             "adjacency": level["adjacency"]}]


def records_of(report):
    """Records as (key, level, printed, outcomes, classes) in report order."""
    names = platforms_of(report)
    out = []
    for r in report["records"]:
        if "platforms" in r:
            payload = r["platforms"]
            classes = r["classes"]
        else:  # the legacy nvcc/hipcc layout
            payload = [r[name] for name in names]
            classes = [NONE, r["class"]]
        out.append((f"{r['program']}:{r['input']}:{r['level']}", r["level"],
                    [p["printed"] for p in payload],
                    [(p["outcome"]["cls"], p["outcome"]["neg"]) for p in payload],
                    classes))
    return out


def check_report(report, programs, inputs, n_platforms):
    """Conservation and taxonomy of one campaign report."""
    problems = []
    levels = report["levels"]
    if (report["num_programs"], report["inputs_per_program"]) != (programs, inputs):
        problems.append("campaign shape differs from the command")
    if len(platforms_of(report)) != n_platforms:
        problems.append("platform count differs from the command")
    n_pairs = n_platforms - 1
    comparisons = 0
    discrepancies = 0
    for name, level in zip(levels, report["per_level"]):
        if level["comparisons"] != programs * inputs:
            problems.append(f"{name}: comparisons != programs x inputs")
        comparisons += level["comparisons"]
        pairs = level_pairs(level)
        if len(pairs) != n_pairs:
            problems.append(f"{name}: {len(pairs)} pairs for {n_platforms} platforms")
        for p, pair in enumerate(pairs):
            counts = sum(pair["class_counts"])
            if counts != sum(map(sum, pair["adjacency"])):
                problems.append(f"{name} pair {p}: class counts != adjacency")
            discrepancies += counts
    totals = report["totals"]
    if totals["comparisons"] != comparisons:
        problems.append("totals.comparisons != sum over levels")
    if totals["runs"] != comparisons * n_platforms:
        problems.append("totals.runs != comparisons x platforms")
    if totals["discrepancies"] != discrepancies:
        problems.append("totals.discrepancies != sum of class counts")

    records = records_of(report)
    # Re-derive every record's verdict from its printed values.
    tally = {}
    for key, level, printed, outcomes, classes in records:
        if [o[0] for o in outcomes] != [outcome_of_printed(t)[0] for t in printed] \
                or [o[1] for o in outcomes] != [outcome_of_printed(t)[1] for t in printed]:
            problems.append(f"{key}: outcome does not match printed value")
        derived = verdict_of_printed(printed)
        if derived != classes:
            problems.append(f"{key}: classes {classes} but printed values give {derived}")
        if all(c == NONE for c in classes):
            problems.append(f"{key}: record without a discrepancy")
        for p in range(1, len(classes)):
            if classes[p] == NONE:
                continue
            cell = (level, p - 1, classes[p], outcomes[0][0], outcomes[p][0])
            tally[cell] = tally.get(cell, 0) + 1
    # Uncapped, the records are exactly the discrepant comparisons.
    if len(records) < report["config"]["max_records"]:
        for name, level in zip(levels, report["per_level"]):
            for p, pair in enumerate(level_pairs(level)):
                for c in range(CLASS_COUNT):
                    n = sum(v for (l, q, k, _, _), v in tally.items()
                            if (l, q, k) == (name, p, c))
                    if n != pair["class_counts"][c]:
                        problems.append(f"{name} pair {p} class {c}: "
                                        f"{pair['class_counts'][c]} counted, {n} records")
                for a in range(4):
                    for b in range(4):
                        n = sum(v for (l, q, _, x, y), v in tally.items()
                                if (l, q, x, y) == (name, p, a, b))
                        if n != pair["adjacency"][a][b]:
                            problems.append(f"{name} pair {p}: adjacency [{a}][{b}] "
                                            f"{pair['adjacency'][a][b]}, {n} records")
    return problems


def exemplar_keys(report, max_exemplars=MAX_EXEMPLARS):
    """The store's exemplar rule: the first records of each (pair, class),
    deduplicated, in report (canonical) order."""
    cells = {}
    keys = []
    for key, _, _, _, classes in records_of(report):
        for p in range(1, len(classes)):
            if classes[p] == NONE:
                continue
            cell = cells.setdefault((p, classes[p]), [])
            if len(cell) < max_exemplars:
                cell.append(key)
                if key not in keys:
                    keys.append(key)
    return keys


def bundle_name(key):
    return "bundle-" + key.replace(":", "-") + ".json"


# --------------------------------------------------------------------------
# Oracle replay


def _run_oracle(oracle, request, path):
    with open(path, "w") as f:
        json.dump(request, f)
    proc = subprocess.run([oracle, path], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, [f"pb-oracle failed: {proc.stderr.strip()[-300:]}"]
    return [json.loads(line) for line in proc.stdout.splitlines()], []


def check_oracle(oracle, report_path, report, rng, scratch):
    """Re-run every record, and as many seeded agreeing comparisons, through
    the tree-walk oracle on every platform; each must give the report's
    verdict (and, for records, the report's printed values)."""
    records = records_of(report)
    if len(records) >= report["config"]["max_records"]:
        return ["capped report: agreeing comparisons are not known"]
    by_key = {r[0]: r for r in records}
    levels = report["levels"]
    agreeing = set()
    while len(agreeing) < len(records):
        key = (f"{rng.randrange(report['num_programs'])}:"
               f"{rng.randrange(report['inputs_per_program'])}:{rng.choice(levels)}")
        if key not in by_key:
            agreeing.add(key)
    tuples = [[int(k.split(":")[0]), int(k.split(":")[1]), k.split(":")[2]]
              for k in list(by_key) + sorted(agreeing)]
    n_platforms = len(platforms_of(report))
    results, problems = _run_oracle(
        oracle, {"report": report_path, "tuples": tuples}, scratch)
    if results is None:
        return problems
    precision = report["precision"]
    for res in results:
        key = res["key"]
        if "error" in res:
            problems.append(f"oracle {key}: {res['error']}")
            continue
        verdict = verdict_of_bits(res["bits"], precision)
        if key in by_key:
            _, _, printed, _, classes = by_key[key]
            if verdict != classes or res["printed"] != printed:
                problems.append(f"oracle {key}: verdict {verdict} {res['printed']}, "
                                f"report {classes} {printed}")
        elif verdict != [NONE] * n_platforms:
            problems.append(f"oracle {key}: verdict {verdict} on an agreeing comparison")
    if len(results) != len(tuples):
        problems.append("oracle answered a different number of comparisons")
    return problems


def check_bundles(oracle, report, bundle_dir, minimal_sample, rng, scratch):
    """Every exemplar has a bundle that loads, and whose reduced program keeps
    the record's verdict on the oracle; a sample is 1-minimal.  Returns
    (problems, exemplar count, exemplars without a bundle)."""
    keys = exemplar_keys(report)
    by_key = {r[0]: r for r in records_of(report)}
    present = set(os.listdir(bundle_dir)) if os.path.isdir(bundle_dir) else set()
    expected = {bundle_name(k) for k in keys}
    problems = [f"unexpected file {name} in {bundle_dir}"
                for name in sorted(present - expected)]
    missing = [k for k in keys if bundle_name(k) not in present]
    problems += [f"no bundle for exemplar {k}" for k in missing]
    paths = [os.path.join(bundle_dir, bundle_name(k)) for k in keys
             if bundle_name(k) in present]
    if not paths:
        return problems, len(keys), len(missing)
    minimal = set(rng.sample(paths, min(minimal_sample, len(paths))))
    results, errs = _run_oracle(
        oracle, {"bundles": [p for p in paths if p not in minimal],
                 "minimality": sorted(minimal)}, scratch)
    problems += errs
    for res in results or []:
        name = os.path.basename(res["path"])
        if "error" in res:
            problems.append(f"{name}: {res['error']}")
            continue
        classes = by_key[res["record"]][4]
        verdict = verdict_of_bits(res["bits"], res["precision"])
        if verdict != res["verdict"] or verdict != classes:
            problems.append(f"{name}: oracle verdict {verdict}, bundle "
                            f"{res['verdict']}, record {classes}")
        for i, drop in enumerate(res.get("drops", [])):
            if not drop.get("broken") and \
                    verdict_of_bits(drop["bits"], res["precision"]) == classes:
                problems.append(f"{name}: dropping statement {i} keeps the verdict")
    return problems, len(keys), len(missing)


def new_rng(seed, salt):
    return random.Random(f"{seed}:{salt}")
