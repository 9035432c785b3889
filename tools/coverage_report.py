#!/usr/bin/env python3
"""Line coverage of src/ by layer, and a gate on the functions nothing calls.

Usage (from the repository root, after a --coverage build ran its tests):
    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS=--coverage -DECL_BUILD_BENCH=OFF
    cmake --build build-cov -j && ctest --test-dir build-cov -j
    python3 tools/coverage_report.py build-cov

Runs `gcov --json-format` over every .gcda under the build tree: library,
test and example objects alike, because code in src/ headers runs from the
objects that include it. Counts are summed per source line and per function
across all of them (an inline function's counts land in whichever object's
copy the linker kept). A function is its source location; its constructor,
destructor and template variants count together.

Prints the line coverage of each src/ layer and every function in src/ that
never ran. Exits 1 when such a function is not on the allow-list
(tools/coverage_allowlist.txt), or when an allow-list entry names a function
that ran or no longer exists. Uses the standard library only; gcov must be
the one that came with the compiler.
"""

import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src") + os.sep
ALLOWLIST = os.path.join(HERE, "coverage_allowlist.txt")


def gcda_files(build_dir):
    for dirpath, _, names in os.walk(build_dir):
        for name in sorted(names):
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def gcov_reports(gcda):
    """One parsed gcov JSON report per .gcda, in the file's directory."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names",
         os.path.basename(gcda)],
        cwd=os.path.dirname(gcda), capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines() if line]


def short_name(demangled):
    """The qualified name without its parameter list, qualifiers and ABI
    tags, and with the parameter lists inside it elided:
    `ecl::f(int)::{lambda(int)#1}::operator()(int) const` ->
    `ecl::f(...)::{lambda(...)#1}::operator()`."""
    name = demangled.replace("[abi:cxx11]", "").rstrip()
    for suffix in (" const", " &&", " &", " noexcept"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    out = []
    depth = start = 0
    for i, c in enumerate(name):
        if c == "(":
            if depth == 0:
                start = i
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                group = name[start:i + 1]
                # Keep "()" (operator()) and "(anonymous namespace)".
                keep = group == "()" or name[start - 2:start] == "::"
                out.append(group if keep else "(...)")
        elif depth == 0:
            out.append(c)
    out.pop()  # the function's own parameter list
    return "".join(out)


def collect(build_dir):
    """(lines, functions) over src/: lines maps (file, line) to its count;
    functions maps (file, line, column) to [count, name]."""
    lines = collections.Counter()
    functions = {}
    for gcda in gcda_files(build_dir):
        for report in gcov_reports(gcda):
            for entry in report["files"]:
                path = os.path.normpath(
                    os.path.join(report["current_working_directory"],
                                 entry["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, ROOT)
                for line in entry["lines"]:
                    lines[(rel, line["line_number"])] += line["count"]
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["start_column"])
                    slot = functions.setdefault(
                        key, [0, short_name(fn["demangled_name"])])
                    slot[0] += fn["execution_count"]
    return lines, functions


def read_allowlist():
    """Entries `<file> <qualified name>`, each under its `#` reason; the
    entries after one reason share it."""
    entries = {}
    reason = []
    after_entry = False
    with open(ALLOWLIST) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#") and after_entry:
                reason, after_entry = [], False
            if line.startswith("#"):
                reason.append(line[1:].strip())
            elif line:
                if not reason:
                    sys.exit("coverage: allow-list entry without a reason: " +
                             line)
                path, _, name = line.partition(" ")
                entries[(path, name.strip())] = " ".join(reason)
                after_entry = True
    return entries


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    lines, functions = collect(sys.argv[1])
    if not lines:
        sys.exit("coverage: no .gcda data for src/ under " + sys.argv[1])

    by_layer = collections.defaultdict(lambda: [0, 0])
    for (path, _), count in lines.items():
        layer = by_layer[path.split(os.sep)[1]]
        layer[0] += count > 0
        layer[1] += 1
    ran = sum(r for r, _ in by_layer.values())
    total = sum(t for _, t in by_layer.values())
    print("line coverage of src/: %d of %d lines (%.1f%%)" %
          (ran, total, 100.0 * ran / total))
    for name, (r, t) in sorted(by_layer.items(),
                               key=lambda kv: kv[1][0] / kv[1][1]):
        print("  %-10s %5.1f%%  (%d of %d)" % (name, 100.0 * r / t, r, t))

    never = sorted({(path, name)
                    for (path, _, _), (count, name) in functions.items()
                    if count == 0})
    called = {(path, name)
              for (path, _, _), (count, name) in functions.items()
              if count > 0}
    allowed = read_allowlist()
    print("functions in src/ that never ran: %d" % len(never))
    failures = 0
    for path, name in never:
        if (path, name) in allowed:
            print("  allowed  %s %s" % (path, name))
        else:
            print("  NEW      %s %s" % (path, name))
            failures += 1
    for (path, name), reason in sorted(allowed.items()):
        if (path, name) not in never:
            state = "ran" if (path, name) in called else "is gone"
            print("  STALE    %s %s (allow-listed, but %s)" %
                  (path, name, state))
            failures += 1
    if failures:
        print("coverage: %d function(s) to test, delete or allow-list "
              "(tools/coverage_allowlist.txt)" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
