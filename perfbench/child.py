"""Child-process entry points of the benchmark.

Two modes, both run from the root of a source checkout:

``python perfbench/child.py lib CONFIG_JSON RESULT TIMINGS [--probe OUT] [--spans OUT]``
    One library ``run_experiment`` in a fresh interpreter, so the pair memo
    and every import start cold.  Writes the protected run's summary to
    RESULT (the durable result, inside the state directory) and its clock
    readings to TIMINGS.

``python perfbench/child.py cli --probe OUT -- ARGS...``
    ``repro`` with ARGS, with the layer probes installed (the traced form
    of ``python -m repro ARGS``).

``--probe`` installs :mod:`probe` and writes its report to OUT;
``--spans`` collects the program's own trace spans of the library run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)


def run_lib(args: argparse.Namespace) -> int:
    if args.probe:
        import probe

        probe.install(service=False)
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.obs import trace

    config = ExperimentConfig(**json.loads(args.config))
    ready = time.monotonic()
    scope = trace.activate(trace.new_trace_id()) if args.spans else None
    start = time.perf_counter()
    outcome = run_experiment(config)
    spans = trace.deactivate(scope) if scope is not None else []
    best = outcome.result.best
    summary = {
        "final_scores": [float(ind.score) for ind in outcome.result.population],
        "best_score": float(best.score),
        "best_information_loss": float(best.information_loss),
        "best_disclosure_risk": float(best.disclosure_risk),
        "generations": len(outcome.history),
        "evaluator_stats": outcome.evaluator.stats(),
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    wall = time.perf_counter() - start
    timings = {"ready": ready, "wall_s": wall}
    with open(args.timings, "w", encoding="utf-8") as handle:
        json.dump(timings, handle)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"wall_s": wall, "spans": spans}, handle)
    if args.probe:
        probe.write_report(args.probe)
    return 0


def run_cli(args: argparse.Namespace) -> int:
    import probe

    probe.install(service=True)
    from repro import cli

    try:
        return cli.main(args.argv)
    finally:
        probe.write_report(args.probe)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    lib = sub.add_parser("lib")
    lib.add_argument("config")
    lib.add_argument("result")
    lib.add_argument("timings")
    lib.add_argument("--probe", default="")
    lib.add_argument("--spans", default="")
    cli = sub.add_parser("cli")
    cli.add_argument("--probe", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "lib":
        return run_lib(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
