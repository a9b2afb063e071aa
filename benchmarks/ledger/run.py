#!/usr/bin/env python3
"""Serving ledger: four named workloads, noise-normalised metrics.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--traced] [--probes] [--trace-out FILE] [--out FILE]
        [--selfcheck | --seed-sweep N] [--smoke]

Each workload runs in its own child process (BLAS pinned to one
thread, never more than one child alive).  Every metric is printed by
name with its unit, outputs are verified, and any failed check makes
the exit code non-zero.  See README.md beside this file for what each
name means.

The benchmark driver's contract form is also accepted:

    run.py --workload NAME --seed N --seconds S --trace 0|1

which prints one JSON object as the last line of stdout: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (one traced pass plus the layer probes).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
NOISE = HERE / "NOISE.json"
README = HERE / "README.md"

#: The only environment the harness sets, recorded in ``info.env``.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Cold starts per run: probes before and after the serving child, plus
#: the serving child's own.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _child_main(argv: list[str]) -> int:
    """Entry point inside a child process (``--child MODE JSON``)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from ledgerlib.child import ChildArgs, serve, setup_probe

    mode, payload = argv
    args = ChildArgs(**json.loads(payload))
    result = setup_probe(args) if mode == "setup" else serve(args)
    print(json.dumps(result))
    return 0


def _spawn(mode: str, **fields) -> dict:
    """Run one child to completion and return its result object."""
    env = {**os.environ, **THREAD_PINS}
    payload = json.dumps({**fields, "spawned_at": time.time()})
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", mode, payload],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ledger child ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    probes: bool = False,
    measure_setup: bool = True,
    trace_out: str | None = None,
    smoke: bool = False,
    min_passes: int = 3,
) -> dict:
    """All children of one workload, one after another."""
    cold_starts = SETUP_SAMPLES - 1 if measure_setup else 0

    def setup_probes(count: int) -> list[float]:
        return [
            _spawn("setup", workload=name, seed=seed, seconds=0.0, smoke=smoke)[
                "setup_s"
            ]
            for _ in range(count)
        ]

    setups = setup_probes(cold_starts // 2)
    result = _spawn(
        "serve",
        workload=name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        probes=probes,
        trace_out=trace_out,
        smoke=smoke,
        min_passes=min_passes,
    )
    setup = result["end_to_end"]["setup_s"]
    setups.append(setup["value"])
    setups += setup_probes(cold_starts - cold_starts // 2)
    setup["value"] = statistics.median(setups)
    setup["samples"] = len(setups)
    result["info"]["setup_samples_s"] = setups
    result["info"]["env"] = THREAD_PINS
    return result


def print_result(name: str, seed: int, result: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"== {name} (seed {seed})")
    for group in ("end_to_end", "per_layer"):
        for metric, entry in result[group].items():
            samples = f"  n={entry['samples']}" if "samples" in entry else ""
            print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}{samples}")
    for key, value in result["info"].items():
        print(f"  info.{key:37s} {value}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(
        f"  checks: {verdict}  attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    for problem in result["problems"]:
        print(f"    ! {problem}")


def contract_line(result: dict, group: str, names: list[str]) -> str:
    """The driver's result object: exactly the manifest's metrics."""
    metrics = {
        name: {
            "value": result[group][name]["value"],
            "unit": result[group][name]["unit"],
        }
        for name in names
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


RAW_FIELDS = ("tok_s_raw", "itl_p50_ms_raw", "itl_p99_ms_raw")
NOISE_BEGIN = "<!-- noise:begin (written by run.py --selfcheck / --seed-sweep) -->"
NOISE_END = "<!-- noise:end -->"


def _spread(values: list[float], quartiles: bool) -> tuple[float, float]:
    median = statistics.median(values)
    if quartiles:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return median, (q3 - q1) / median
    return median, (max(values) - min(values)) / median


def _spread_report(
    title: str,
    runs: dict[str, list[dict]],
    bounds: dict[str, float],
    quartiles: bool,
) -> tuple[dict, bool]:
    """Per workload and metric: spread of the runs against the bound.

    The raw-seconds fields ride along unbounded: they are the evidence
    for what the cu normalisation and the robust timeline buy.
    """
    within = True
    table: dict = {}
    print(f"\n{title}")
    header = ("workload", "metric", "median", "spread", "bound")
    print("  {:20s} {:16s} {:>12s} {:>8s} {:>7s}".format(*header))
    for workload, results in runs.items():
        table[workload] = {}
        for metric, bound in bounds.items():
            values = [r["end_to_end"][metric]["value"] for r in results]
            median, spread = _spread(values, quartiles)
            # The driver does not gate the spread of setup_s, only its median.
            ok = spread <= bound or (quartiles and metric == "setup_s")
            within = within and ok
            table[workload][metric] = {"median": median, "spread": spread}
            flag = "" if ok else "  EXCEEDS"
            print(
                f"  {workload:20s} {metric:16s} {median:12.5g} "
                f"{100 * spread:7.2f}% {100 * bound:6.1f}%{flag}"
            )
        for field in RAW_FIELDS:
            median, spread = _spread([r["info"][field] for r in results], quartiles)
            table[workload]["info." + field] = {"median": median, "spread": spread}
            print(
                f"  {workload:20s} {'info.' + field:16s} {median:12.5g} "
                f"{100 * spread:7.2f}%   (raw)"
            )
    return table, within


def _render_noise(recorded: dict) -> str:
    """The README's measured-noise section, from ``NOISE.json``."""
    titles = {
        "selfcheck": "(max - min) / median over {n} back-to-back sets at one seed",
        "seed_sweep": "IQR / median over {n} seeds (as the benchmark driver does)",
    }
    lines: list[str] = []
    for key, title in titles.items():
        if key not in recorded:
            continue
        entry = recorded[key]
        lines += ["", f"**{title.format(n=entry['runs_per_workload'])}**", ""]
        names = list(next(iter(entry["spread"].values())))
        lines.append("| workload | " + " | ".join(f"`{n}`" for n in names) + " |")
        lines.append("|---|" + "---:|" * len(names))
        for workload, metrics in entry["spread"].items():
            cells = [f"{100 * metrics[n]['spread']:.1f} %" for n in names]
            lines.append(f"| `{workload}` | " + " | ".join(cells) + " |")
        bounds = [
            f"{100 * entry['bounds'][n]:.0f} %" if n in entry["bounds"] else "-"
            for n in names
        ]
        lines.append("| *bound* | " + " | ".join(bounds) + " |")
    return "\n".join(lines) + "\n"


def selfcheck(args: argparse.Namespace, names: list[str], manifest: dict) -> int:
    """Repeat the set and hold every spread against its bound."""
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    if args.seed_sweep:
        seeds = list(range(args.seed, args.seed + args.seed_sweep))
        title = f"seed sweep: IQR / median over seeds {seeds[0]}..{seeds[-1]}"
        key = "seed_sweep"
    else:
        seeds = [args.seed] * 3
        title = f"selfcheck: (max - min) / median over 3 sets at seed {args.seed}"
        key = "selfcheck"
    runs: dict[str, list[dict]] = {name: [] for name in names}
    correct = True
    for seed in seeds:
        for name in names:
            result = run_workload(name, seed, args.seconds, smoke=args.smoke)
            correct = correct and result["correct"]
            runs[name].append(result)
            print(f"  ran {name} seed {seed}: correct={result['correct']}", flush=True)
    table, within = _spread_report(title, runs, bounds, quartiles=bool(args.seed_sweep))
    if not args.smoke and len(names) == len(manifest["workloads"]):
        recorded = json.loads(NOISE.read_text()) if NOISE.exists() else {}
        recorded[key] = {
            "runs_per_workload": len(seeds),
            "bounds": bounds,
            "spread": table,
        }
        NOISE.write_text(json.dumps(recorded, indent=2) + "\n")
        readme = README.read_text()
        head, rest = readme.split(NOISE_BEGIN)
        tail = rest.split(NOISE_END)[1]
        README.write_text(
            head + NOISE_BEGIN + "\n" + _render_noise(recorded) + NOISE_END + tail
        )
        print(f"\nwrote {NOISE.relative_to(ROOT)} and the README's noise section")
    return 0 if within and correct else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return _child_main(argv[1:])
    if not (SRC / "repro").is_dir() or not MANIFEST.is_file():
        print(f"ledger: needs {SRC}/repro and {MANIFEST}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    known = [entry["name"] for entry in manifest["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=known, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(manifest["run_seconds"]),
        help="measure passes for this long (at least three passes)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="contract form: 0 = end-to-end result line, 1 = per-layer",
    )
    parser.add_argument("--traced", action="store_true", help="add the traced pass")
    parser.add_argument("--probes", action="store_true", help="add the layer probes")
    parser.add_argument("--trace-out", help="write the merged Chrome trace here")
    parser.add_argument("--out", help="also write the full results as JSON here")
    parser.add_argument("--selfcheck", action="store_true", help="3 sets, same seed")
    parser.add_argument("--seed-sweep", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true", help="seconds-sized shapes")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else known

    sys.path.insert(0, str(HERE))
    from ledgerlib import schema

    problems = schema.schema_problems() + schema.check_manifest(manifest)
    if problems:
        print("ledger: schema problems:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    if args.selfcheck or args.seed_sweep:
        return selfcheck(args, names, manifest)

    per_layer_run = args.trace == 1
    results: dict[str, dict] = {}
    for name in names:
        results[name] = run_workload(
            name,
            args.seed,
            0.0 if per_layer_run else args.seconds,
            traced=args.traced or per_layer_run,
            probes=args.probes or per_layer_run,
            measure_setup=not per_layer_run,
            trace_out=args.trace_out,
            smoke=args.smoke,
            min_passes=2 if per_layer_run else 3,
        )
        print_result(name, args.seed, results[name])
    correct = all(result["correct"] for result in results.values())
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    if args.workload and args.trace is not None:
        group = "per_layer" if per_layer_run else "end_to_end"
        wanted = [entry["name"] for entry in manifest[group]]
        print(contract_line(results[args.workload], group, wanted))
    else:
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "workloads": {
                        name: result["end_to_end"] for name, result in results.items()
                    },
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
