#!/usr/bin/env python3
"""Steadiness tooling of the ALF serving benchmark.

    python3 alfbench/steady.py run [--workloads W,...] [--seeds 1-10]
                                   [--traced N] [--out FILE]
    python3 alfbench/steady.py compare BASE.json NEW.json

`run` runs the benchmark command of BENCHMARK.json once per workload and
seed, then prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound: a spread within the bound is accepted, one
below a third of it is steady. It also checks that the share of failed
requests is the same in every run. With --traced N it adds N traced runs
per workload, prints the median of each per-layer metric, and reports the
tracing overhead: the traced runs' end-to-end medians against the
untraced ones. --out saves every run's result for `compare`.

`compare` matches two saved result sets metric by metric: for every
workload and end-to-end metric it prints both medians and how much worse
NEW is, as a share of BASE's median, against the bound.

Run from the root of the checkout (where BENCHMARK.json is).
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        sys.exit("steady: %s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, p.returncode))
    rec = json.loads(lines[-1])
    rec.update(workload=workload, seed=seed, trace=trace)
    for line in lines:
        if line.startswith("traced_end_to_end "):
            rec["traced_end_to_end"] = json.loads(
                line[len("traced_end_to_end "):])["metrics"]
    print("  %s seed %d%s: correct=%s attempted=%d failed=%d"
          % (workload, seed, " traced" if trace else "", rec["correct"],
             rec["attempted"], rec["failed"]), flush=True)
    return rec


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values_of(records, workload, metric, key="metrics"):
    return [r[key][metric]["value"] for r in records
            if r["workload"] == workload and metric in r.get(key, {})]


def report(spec, records):
    ok = True
    print("%-22s %-15s %12s %12s %12s %7s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for w in spec["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"] and
                not r["trace"]]
        if not runs:
            continue
        for m in spec["end_to_end"]:
            med, q1, q3, spread = stats(values_of(runs, w["name"], m["name"]))
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("%-22s %-15s %12.5g %12.5g %12.5g %7.3f %6.2f  %s" % (
                w["name"], m["name"], med, q1, q3, spread, m["bound"],
                verdict))
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("%-22s failed share %s, correct in every run: %s" % (
            w["name"], sorted(shares), correct))
        ok = ok and len(shares) == 1 and correct
    traced = [r for r in records if r["trace"]]
    for w in spec["workloads"]:
        tr = [r for r in traced if r["workload"] == w["name"]]
        if not tr:
            continue
        print("\n%s: per-layer medians over %d traced runs" % (w["name"],
                                                               len(tr)))
        for m in spec["per_layer"]:
            v = values_of(tr, w["name"], m["name"])
            if v:
                print("  %-42s %14.6g %s" % (m["name"], statistics.median(v),
                                             m["unit"]))
        untraced = [r for r in records if r["workload"] == w["name"] and
                    not r["trace"]]
        if untraced:
            print("  tracing overhead (traced median vs untraced median):")
            for m in spec["end_to_end"]:
                t = values_of(tr, w["name"], m["name"], "traced_end_to_end")
                u = values_of(untraced, w["name"], m["name"])
                if t and u:
                    base = statistics.median(u)
                    print("    %-15s %+8.2f%%" % (
                        m["name"], 100 * (statistics.median(t) - base) / base))
    return ok


def worse_share(metric, base, new):
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def compare(spec, base, new):
    ok = True
    print("%-22s %-15s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "base", "new", "worse", "bound", "verdict"))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b = values_of([r for r in base if not r["trace"]], w["name"],
                          m["name"])
            n = values_of([r for r in new if not r["trace"]], w["name"],
                          m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = worse_share(m, mb, mn)
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            ok = ok and worse <= m["bound"]
            print("%-22s %-15s %12.5g %12.5g %+7.1f%% %6.2f  %s" % (
                w["name"], m["name"], mb, mn, 100 * worse, m["bound"],
                verdict))
        sb = {r["failed"] / r["attempted"] for r in base
              if r["workload"] == w["name"] and not r["trace"]}
        sn = {r["failed"] / r["attempted"] for r in new
              if r["workload"] == w["name"] and not r["trace"]}
        if sb or sn:
            same = sb == sn and len(sb) == 1
            ok = ok and same
            print("%-22s failed share base %s new %s: %s" % (
                w["name"], sorted(sb), sorted(sn), "same" if same else
                "DIFFERENT"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--traced", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    a = ap.parse_args()
    spec = load_spec()
    if a.cmd == "compare":
        with open(a.base) as f:
            base = json.load(f)
        with open(a.new) as f:
            new = json.load(f)
        return 0 if compare(spec, base, new) else 1
    names = [w["name"] for w in spec["workloads"]]
    wanted = a.workloads.split(",") if a.workloads else names
    seeds = parse_seeds(a.seeds)
    records = []
    for w in wanted:
        if w not in names:
            sys.exit("steady: unknown workload " + w)
        for s in seeds:
            records.append(run_once(spec, w, s, 0))
        for s in seeds[:a.traced]:
            records.append(run_once(spec, w, s, 1))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(records, f, indent=1)
    return 0 if report(spec, records) else 1


if __name__ == "__main__":
    sys.exit(main())
