#!/usr/bin/env python3
"""Compare two sets of ccra benchmark results (stdlib only).

    benchmark/compare.py PARENT CHANGE     parent commit vs change
    benchmark/compare.py --self A B        two sets of one commit must agree

Each of PARENT, CHANGE, A and B is a directory of results-*.json files (as
benchmark/run.sh --out DIR writes them) or a list of such files separated
by commas. Runs pair up by (workload, seed, trace); run the two sides
alternately (ABBA) with the same seeds, so each pair shares its machine
conditions. All runs must have measured for the same number of seconds.

For every (workload, metric) row the report gives each side's median and
quartiles and the share of pairs the change won (ties count for neither).
End-to-end metrics are judged against their bound in BENCHMARK.json:

  FAIL        the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own quartile spread exceeds the bound, so no
              verdict can be given (unless every change run beats every
              parent run)
  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  pass        otherwise

failed/attempted is compared as a share of operations and may not rise.
Values the benchmark defines as deterministic (overhead_ops and the replay
counts below) must be identical in every run of one commit that shares a
seed (under --self, across both sets); any difference is reported as a
benchmark bug. The exit status is non-zero on FAIL, on disagreement under
--self, and on a benchmark bug.

Under --self a row agrees when the medians differ by at most the bound and
each set's quartile spread is within it (setup_s is held to its median
only, as its spread is not bounded).
"""

import glob
import json
import os
import statistics
import sys

DETERMINISTIC = (
    "overhead_ops",
    "regalloc.rounds_per_fn",
    "regalloc.liveness_computes_per_fn",
    "service.cache.hit_ratio",
)


def load(spec):
    paths = []
    for part in spec.split(","):
        if os.path.isdir(part):
            paths += sorted(glob.glob(os.path.join(part, "results-*.json")))
        else:
            paths.append(part)
    runs = []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        run["path"] = path
        runs.append(run)
    if not runs:
        sys.exit(f"compare.py: no results in {spec}")
    return runs


def bounds():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layers


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse(a, b, better):
    """How much worse a is than b, as a share of b (negative = better)."""
    if b == 0:
        return 0.0 if a == b else float("inf")
    change = (a - b) / abs(b)
    return change if better == "lower" else -change


def group(runs):
    by = {}
    for r in runs:
        by.setdefault((r["workload"], r["trace"]), []).append(r)
    return by


def determinism(runs):
    """Deterministic values must repeat exactly across runs of one seed."""
    bugs = []
    seen = {}
    for r in runs:
        for name in DETERMINISTIC:
            if name not in r["metrics"]:
                continue
            key = (r["workload"], r["seed"], name)
            value = r["metrics"][name]["value"]
            if key in seen and seen[key][0] != value:
                bugs.append(f"benchmark bug: {r['workload']} seed "
                            f"{r['seed']} {name} = {value} in {r['path']} "
                            f"but {seen[key][0]} in {seen[key][1]}")
            seen.setdefault(key, (value, r["path"]))
    return bugs


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent, change, self_mode):
    lengths = sorted({r["seconds"] for r in parent + change})
    if len(lengths) > 1:
        sys.exit(f"compare.py: runs measured for {lengths} s; only runs of "
                 f"one length compare")
    e2e, layers = bounds()
    bugs = (determinism(parent + change) if self_mode
            else determinism(parent) + determinism(change))
    bad = False
    p_groups, c_groups = group(parent), group(change)
    header = (f"{'workload':12} {'metric':40} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>5} verdict")
    print(header)
    for key in sorted(set(p_groups) & set(c_groups)):
        workload, trace = key
        p_runs, c_runs = p_groups[key], c_groups[key]
        p_by_seed = {r["seed"]: r for r in p_runs}
        pairs = [(p_by_seed[r["seed"]], r) for r in c_runs
                 if r["seed"] in p_by_seed]
        for name in p_runs[0]["metrics"]:
            meta = e2e.get(name) or layers.get(name)
            if meta is None:
                continue
            better = meta["better"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs
                  if name in r["metrics"]]
            if not cv:
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(worse(c["metrics"][name]["value"],
                             p["metrics"][name]["value"], better) < 0
                       for p, c in pairs)
            won = wins / len(pairs) if pairs else 0.0
            verdict = ""
            bound = meta.get("bound")
            if bound is not None:
                drift = worse(cq[1], pq[1], better)
                if self_mode:
                    ok = abs(drift) <= bound and (
                        name == "setup_s"
                        or max(spread(pv), spread(cv)) <= bound)
                    verdict = "agree" if ok else "DISAGREE"
                    bad |= not ok
                elif spread(pv) > bound:
                    beats_all = all(worse(c, p, better) < 0
                                    for c in cv for p in pv)
                    verdict = "better" if beats_all else "unresolved"
                elif drift > bound:
                    verdict = "FAIL"
                    bad = True
                elif won >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
                    verdict = "gain"
                else:
                    verdict = "pass"
            print(f"{workload:12} {name:40} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{won:5.2f} {verdict}")
        pf, cf = fail_share(p_runs), fail_share(c_runs)
        verdict = "pass" if cf <= pf else "FAIL"
        bad |= cf > pf
        print(f"{workload:12} {'failed/attempted':40} {pf:>32.4g} "
              f"{cf:>32.4g} {'':5} {verdict}")
    for bug in bugs:
        print(bug)
    return 1 if bad or bugs else 0


def main(argv):
    self_mode = len(argv) == 3 and argv[0] == "--self"
    if self_mode:
        argv = argv[1:]
    if len(argv) != 2:
        sys.exit(__doc__)
    return compare(load(argv[0]), load(argv[1]), self_mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
