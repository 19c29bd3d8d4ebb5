"""Fail when a freshly recorded benchmark regresses against its baseline.

Two modes:

**Pair mode** — each argument is a ``baseline.json:current.json`` pair of
records written by ``scripts/record_bench.py``.  The current run's
``speedup`` must stay within ``--tolerance`` (default 20%) of the
committed baseline's.

**Fresh-dir mode** (``--fresh-dir DIR``) — the unified CI gate: every
committed ``BENCH_*.json`` at the repository root is paired with the
same-named fresh record in ``DIR`` (where the benchmark jobs upload their
runs) and diffed with the same tolerance.  A committed record with no
fresh counterpart fails the gate — a benchmark that silently stopped
running is itself a regression.

Usage::

    python scripts/check_bench_regression.py [--tolerance 0.20] \\
        .bench-baseline/BENCH_prefix_cache.json:BENCH_prefix_cache.json ...
    python scripts/check_bench_regression.py [--tolerance 0.20] \\
        --fresh-dir .bench-fresh
"""

import argparse
import glob
import json
import os
import sys


def compare(baseline_path, current_path, tolerance):
    """Returns an error string, or ``None`` when the pair is acceptable."""
    with open(baseline_path) as stream:
        baseline = json.load(stream)
    with open(current_path) as stream:
        current = json.load(stream)
    if baseline.get("benchmark") != current.get("benchmark"):
        return "{}: benchmark {!r} does not match baseline {!r}".format(
            current_path, current.get("benchmark"), baseline.get("benchmark"))
    floor = baseline["speedup"] * (1.0 - tolerance)
    if current["speedup"] < floor:
        return ("{}: speedup {:.2f}x regressed below {:.2f}x "
                "(baseline {:.2f}x - {:.0f}% tolerance)").format(
            current_path, current["speedup"], floor,
            baseline["speedup"], tolerance * 100)
    return None


def fresh_dir_pairs(fresh_dir, root=None):
    """Pair every committed ``BENCH_*.json`` with its fresh counterpart.

    Returns ``(pairs, missing)``: the ``(baseline, current)`` path pairs
    for records present in both places, and the names of committed
    records with no fresh copy.
    """
    root = root or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    committed = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    pairs, missing = [], []
    for baseline_path in committed:
        name = os.path.basename(baseline_path)
        current_path = os.path.join(fresh_dir, name)
        if os.path.exists(current_path):
            pairs.append((baseline_path, current_path))
        else:
            missing.append(name)
    return pairs, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pairs", nargs="*", metavar="BASELINE:CURRENT",
                        help="colon-separated baseline/current record pair")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional speedup drop vs the baseline "
                             "(default: 0.20)")
    parser.add_argument("--fresh-dir", default=None, metavar="DIR",
                        help="diff every committed BENCH_*.json against the "
                             "same-named fresh record in DIR; a committed "
                             "record missing from DIR fails the gate")
    arguments = parser.parse_args(argv)
    if not 0.0 <= arguments.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if bool(arguments.pairs) == bool(arguments.fresh_dir):
        parser.error("pass either BASELINE:CURRENT pairs or --fresh-dir, "
                     "not both and not neither")

    failures = []
    pairs = []
    if arguments.fresh_dir:
        pairs, missing = fresh_dir_pairs(arguments.fresh_dir)
        for name in missing:
            failures.append("{}: committed record has no fresh copy in {} "
                            "(did its benchmark job stop recording?)".format(
                                name, arguments.fresh_dir))
        if not pairs and not missing:
            failures.append("{}: no committed BENCH_*.json records found"
                            .format(arguments.fresh_dir))
    else:
        for pair in arguments.pairs:
            baseline_path, separator, current_path = pair.partition(":")
            if not separator or not baseline_path or not current_path:
                parser.error("expected BASELINE:CURRENT, got {!r}".format(pair))
            pairs.append((baseline_path, current_path))

    for baseline_path, current_path in pairs:
        error = compare(baseline_path, current_path, arguments.tolerance)
        if error:
            failures.append(error)
        else:
            with open(current_path) as stream:
                speedup = json.load(stream)["speedup"]
            print("ok: {} ({:.2f}x vs baseline within {:.0f}%)".format(
                current_path, speedup, arguments.tolerance * 100))

    for failure in failures:
        print("FAIL: {}".format(failure), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
