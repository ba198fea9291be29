#!/usr/bin/env python3
"""Fail if a library `pub fn` has no caller outside tests.

Usage: python3 scripts/check_dead_api.py

Lists every `pub fn` (and `pub const fn`) defined in non-test code
under `crates/*/src` whose name appears nowhere else in non-test code,
and fails on any listed name that is not in
`scripts/dead_api_allowlist.txt`.

Non-test code is `crates/*/src`, `src/`, `examples/` and
`perfbench/src/`, each file cut at the first `#[cfg(test)]` that gates
a `mod`, with every other `#[cfg(test)]` item (a helper, a field, a
statement) skipped to its end, and with comment lines and `use`
declarations (including multi-line ones) ignored, so a doc example or
a re-export does not count as a caller.

Matching is by name, not by path: a function is live when *any*
identifier with its name occurs outside its own definition line. A
name collision can therefore only hide a dead function, never flag a
live one.

Each allowlist line holds a name and a one-line reason, separated by
whitespace; `#` starts a comment. An allowlisted name that is no
longer dead is reported too, so the list cannot go stale.
"""

import re
import sys
from pathlib import Path

SOURCES = ["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "perfbench/src/**/*.rs"]
ALLOWLIST = Path("scripts/dead_api_allowlist.txt")
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
USE = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?use\s")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CFG_TEST = "#[cfg(test)]"
MOD = re.compile(r"^(?:pub(?:\([^)]*\))?\s+)?mod\s")


def nesting(text: str) -> int:
    """Net change in bracket depth ((), [] and {}) across `text`."""
    return sum(text.count(c) for c in "([{") - sum(text.count(c) for c in ")]}")


def code_lines(path: Path):
    """(line number, text) of the file's non-test code lines."""
    in_use = False
    gated = False  # the last attribute seen was #[cfg(test)]
    item = None  # [depth, braced] while skipping a gated item
    for number, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if item is not None:
            item[0] += nesting(stripped)
            item[1] = item[1] or "{" in stripped
            if item[0] <= 0 and (item[1] or stripped.endswith(";")):
                item = None
            continue
        if stripped.startswith(CFG_TEST):
            gated = True
            stripped = stripped[len(CFG_TEST) :].strip()
        if gated:
            if not stripped or stripped.startswith(("#[", "//")):
                continue
            if MOD.match(stripped):
                return
            # The gated item starts here; a one-line item ends with `;`
            # or (a field or variant) `,` at depth 0.
            gated = False
            depth, braced = nesting(stripped), "{" in stripped
            if not (depth <= 0 and (braced or stripped.endswith((";", ",")))):
                item = [depth, braced]
            continue
        if in_use:
            in_use = ";" not in stripped
            continue
        if USE.match(line):
            in_use = ";" not in stripped
            continue
        if stripped.startswith("//"):
            continue
        yield number, line


def main() -> int:
    files = sorted({p for pattern in SOURCES for p in Path().glob(pattern)})
    uses: dict[str, int] = {}
    definitions: list[tuple[str, Path, int]] = []
    for path in files:
        library = path.parts[0] == "crates"
        for number, line in code_lines(path):
            m = PUB_FN.match(line)
            if m and library:
                definitions.append((m.group(1), path, number))
            for ident in IDENT.findall(line):
                uses[ident] = uses.get(ident, 0) + 1
    defined_on = {}
    for name, _, _ in definitions:
        defined_on[name] = defined_on.get(name, 0) + 1
    # A name is used when it occurs more often than it is defined.
    dead = sorted(
        (name, path, number)
        for name, path, number in definitions
        if uses.get(name, 0) <= defined_on[name]
    )

    allowed = {}
    for line in ALLOWLIST.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, _, reason = line.partition(" ")
            allowed[name] = reason.strip()

    failures = [(n, p, i) for n, p, i in dead if n not in allowed]
    dead_names = {n for n, _, _ in dead}
    stale = sorted(n for n in allowed if n not in dead_names)
    for name, path, number in failures:
        print(f"{path}:{number}: pub fn {name} has no caller outside tests")
    for name in stale:
        print(f"{ALLOWLIST}: {name} is allowlisted but has a non-test caller")
    if failures or stale:
        print(
            f"{len(failures)} dead pub fn(s), {len(stale)} stale allowlist entr(ies): "
            "delete the function, make it private, or allowlist it with a reason"
        )
        return 1
    print(f"dead-API check passed ({len(definitions)} pub fns, {len(allowed)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
