#!/usr/bin/env python3
"""Validate a BENCH_soak.json trajectory file, or check that a fresh
soak run reproduces its last line.

Usage: python3 scripts/check_bench_json.py [<path>]   (default: BENCH_soak.json)
       python3 scripts/check_bench_json.py --reproduced-by <fresh.json>

The `soak` binary appends one JSON line per invocation (schema
`nlidb-soak-v1`): run metadata (seed, request count, the producing
commit passed in via --git — library code takes no wall clock, so
provenance is stamped by the caller) plus one object per load shape
with the run's throughput/latency trajectory. This checker keeps the
file honest as it grows:

  * every line parses as a JSON object of the expected schema and
    field types,
  * `index` equals the line's position — the trajectory is append-only
    and strictly ordered, so a dropped or reordered line is an error,
  * the shapes array covers exactly the five soak shapes, in order,
  * per shape, the disposition counters account for every request and
    the signature digest is a 16-hex-digit string,
  * the per-window health series (optional: lines appended before the
    windowed-telemetry layer existed omit it) carries exactly the
    {index, served, p99, burn_milli} keys per window, all values
    non-negative ints, window indices strictly increasing, and the
    retained windows' served sum never exceeding the shape's total
    (the ring evicts, so retained ≤ cumulative).

With --reproduced-by, both BENCH_soak.json and <fresh.json> must pass
the checks above, and the last line of each must agree on every
top-level field except `index` and `git` (position and provenance), and
on every field of each committed shape. Soak runs count logical ticks
only, so a run at the committed seed and request count reproduces the
committed line exactly. A field only the fresh run has (the per-window
`windows` series, newer than the committed line) is not compared.
"""

import json
import sys

SCHEMA = "nlidb-soak-v1"
SHAPES = ["zipfian", "flash-crowd", "long-session", "tenant-skew", "overload"]
RUN_INT_FIELDS = ["index", "seed", "requests"]
SHAPE_INT_FIELDS = [
    "requests",
    "served",
    "answered",
    "session",
    "degraded",
    "refused",
    "shed",
    "deadline",
    "drains",
    "ticks",
    "p50",
    "p95",
    "p99",
    "served_per_kilotick",
    "shed_overload",
    "overload_entered",
    "overload_recovered",
]
WINDOW_FIELDS = ["index", "served", "p99", "burn_milli"]


def fail(lineno: int, msg: str) -> None:
    print(f"{PATH}:{lineno}: {msg}")
    sys.exit(1)


def check_shape(lineno: int, pos: int, shape: dict) -> None:
    name = shape.get("shape")
    if name != SHAPES[pos]:
        fail(lineno, f"shape {pos} must be {SHAPES[pos]!r}, got {name!r}")
    for field in SHAPE_INT_FIELDS:
        v = shape.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(lineno, f"shape {name!r}: field {field!r} must be a non-negative int, got {v!r}")
    accounted = shape["served"] + shape["refused"] + shape["shed"] + shape["deadline"]
    if accounted != shape["requests"]:
        fail(
            lineno,
            f"shape {name!r}: served+refused+shed+deadline = {accounted} "
            f"but requests = {shape['requests']}",
        )
    if shape["served"] != shape["answered"] + shape["session"] + shape["degraded"]:
        fail(lineno, f"shape {name!r}: served must equal answered+session+degraded")
    digest = shape.get("digest")
    if (
        not isinstance(digest, str)
        or len(digest) != 16
        or any(c not in "0123456789abcdef" for c in digest)
    ):
        fail(lineno, f"shape {name!r}: digest must be 16 lowercase hex digits, got {digest!r}")
    if "windows" in shape:
        check_windows(lineno, name, shape)
    extra = set(shape) - set(SHAPE_INT_FIELDS) - {"shape", "digest", "windows"}
    if extra:
        fail(lineno, f"shape {name!r}: unknown fields {sorted(extra)}")


def check_windows(lineno: int, name: str, shape: dict) -> None:
    windows = shape["windows"]
    if not isinstance(windows, list):
        fail(lineno, f"shape {name!r}: 'windows' must be a list, got {windows!r}")
    prev = -1
    retained_served = 0
    for pos, w in enumerate(windows):
        if not isinstance(w, dict):
            fail(lineno, f"shape {name!r}: window {pos} must be a JSON object")
        for field in WINDOW_FIELDS:
            v = w.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(
                    lineno,
                    f"shape {name!r}: window {pos} field {field!r} must be a "
                    f"non-negative int, got {v!r}",
                )
        extra = set(w) - set(WINDOW_FIELDS)
        if extra:
            fail(lineno, f"shape {name!r}: window {pos} unknown fields {sorted(extra)}")
        if w["index"] <= prev:
            fail(
                lineno,
                f"shape {name!r}: window indices must be strictly increasing "
                f"({w['index']} after {prev})",
            )
        prev = w["index"]
        retained_served += w["served"]
    if retained_served > shape["served"]:
        fail(
            lineno,
            f"shape {name!r}: retained windows serve {retained_served} "
            f"but the shape served only {shape['served']}",
        )


def validate(path: str) -> dict:
    """Check every line of `path`; return its last run."""
    global PATH
    PATH = path
    try:
        with open(PATH) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
    except OSError as e:
        print(f"cannot read {PATH!r}: {e.strerror}")
        sys.exit(2)
    if not lines:
        print(f"{PATH}: empty trajectory — the soak binary has never appended")
        sys.exit(1)
    for i, raw in enumerate(lines):
        lineno = i + 1
        try:
            run = json.loads(raw)
        except json.JSONDecodeError as e:
            fail(lineno, f"not valid JSON: {e.msg}")
        if not isinstance(run, dict):
            fail(lineno, "line must be a JSON object")
        if run.get("schema") != SCHEMA:
            fail(lineno, f"schema must be {SCHEMA!r}, got {run.get('schema')!r}")
        for field in RUN_INT_FIELDS:
            v = run.get(field)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(lineno, f"field {field!r} must be a non-negative int, got {v!r}")
        if run["index"] != i:
            fail(lineno, f"index must equal line position {i}, got {run['index']}")
        if run["requests"] == 0:
            fail(lineno, "requests must be positive")
        git = run.get("git")
        if not isinstance(git, str) or not git:
            fail(lineno, f"field 'git' must be a non-empty string, got {git!r}")
        shapes = run.get("shapes")
        if not isinstance(shapes, list) or len(shapes) != len(SHAPES):
            fail(lineno, f"'shapes' must list all {len(SHAPES)} shapes in order")
        for pos, shape in enumerate(shapes):
            if not isinstance(shape, dict):
                fail(lineno, f"shape {pos} must be a JSON object")
            check_shape(lineno, pos, shape)
        extra = set(run) - set(RUN_INT_FIELDS) - {"schema", "git", "shapes"}
        if extra:
            fail(lineno, f"unknown fields {sorted(extra)}")
    print(f"{PATH}: {len(lines)} trajectory line(s) valid ({SCHEMA})")
    return run


def reproduced(committed: dict, fresh: dict) -> list:
    """Every committed field the fresh run does not reproduce."""
    diffs = []
    for field in sorted(set(committed) - {"index", "git", "shapes"}):
        if fresh.get(field) != committed[field]:
            diffs.append(f"{field}: committed {committed[field]!r}, fresh {fresh.get(field)!r}")
    for old, new in zip(committed["shapes"], fresh["shapes"]):
        for field, value in old.items():
            if new.get(field) != value:
                diffs.append(
                    f"shape {old['shape']!r} {field}: committed {value!r}, fresh {new.get(field)!r}"
                )
    return diffs


def main() -> None:
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--reproduced-by":
        committed = validate("BENCH_soak.json")
        fresh = validate(args[1])
        diffs = reproduced(committed, fresh)
        if diffs:
            print(f"{args[1]} does not reproduce the last line of BENCH_soak.json:")
            for d in diffs:
                print(f"  {d}")
            sys.exit(1)
        print(f"{args[1]} reproduces the last line of BENCH_soak.json")
    elif len(args) <= 1 and args[:1] != ["--reproduced-by"]:
        validate(args[0] if args else "BENCH_soak.json")
    else:
        print("usage: python3 scripts/check_bench_json.py [<path>]")
        print("       python3 scripts/check_bench_json.py --reproduced-by <fresh.json>")
        sys.exit(2)


if __name__ == "__main__":
    main()
