#!/usr/bin/env python3
"""Link-reachability census of the pgmcml library functions.

Every strong (``T``) function defined by the static libraries built from
``src/`` is classified by the most important kind of binary that links it:

  production  reached by a CLI (executables under ``src/``) or ``perfbench``
  bench       reached only by ``bench/`` or ``examples/`` programs
  tests       reached only by test executables
  none        reached by no binary at all

The measurement is only meaningful on a build that lets the linker drop
unreferenced functions and keeps calls out of line::

  flags="-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    '-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections' \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
  eval cmake -S . -B build-reach $flags && cmake --build build-reach
  eval cmake -S perfbench -B build-reach-perfbench $flags
  cmake --build build-reach-perfbench --target perfbench perfbench_tests
  tools/reachability.py build-reach build-reach-perfbench --fail-on-unshipped

The first build directory must be the main tree; its ``src/`` archives define
the function set.  Further directories (the perfbench tree) only contribute
binaries.  ``--list CLASS`` prints the demangled functions of one class with
the object file that defines them.  Exit status is 1 with
``--fail-on-unshipped`` when any function is reached by no binary, or only by
tests without being one of the named test seams in ``SEAMS``.
"""

import argparse
import os
import subprocess
import sys

CLASSES = ("production", "bench", "tests", "none")

# The library functions that only tests may reach: demangled name -> why the
# tests need it in the library rather than under tests/.
SEAMS = {
    "pgmcml::spice::FaultPlan::inject(unsigned long, unsigned long, "
    "pgmcml::spice::FaultKind, unsigned long)":
        "the fault-injection hook the robustness tests arm",
    "pgmcml::spice::set_default_solver_backend(pgmcml::spice::SolverBackend)":
        "selects the dense reference backend the sparse parity tests "
        "compare against",
    "pgmcml::obs::Snapshot::merge(pgmcml::obs::Snapshot const&)":
        "combines forked workers' counters (planned consumer: the "
        "worker-counter merge)",
    "pgmcml::obs::Snapshot::from_json(pgmcml::obs::json::Value const&)":
        "reads forked workers' counters back (planned consumer: the "
        "worker-counter merge)",
    "pgmcml::obs::HistogramData::merge(pgmcml::obs::HistogramData const&)":
        "Snapshot::merge's histogram combine (planned consumer: the "
        "worker-counter merge)",
}


def nm(path):
    """Yields (file, symbol, type) for each defined symbol of `path`."""
    out = subprocess.run(["nm", "-P", "-A", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        head, _, rest = line.partition(": ")
        fields = rest.split()
        if len(fields) >= 2:
            yield head, fields[0], fields[1]


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def binary_kind(build_dir, path):
    """Role of an executable by where its CMake target lives."""
    rel = os.path.relpath(path, build_dir).split(os.sep)
    name = rel[-1]
    if name == "perfbench":
        return "production"
    if rel[0] == "tests" or name.endswith("_tests"):
        return "tests"
    if rel[0] in ("bench", "examples"):
        return "bench"
    if rel[0] in ("src", "pgmcml"):
        return "production"
    return None


def library_functions(main_build):
    """Maps each strong function symbol of the src/ archives to its object."""
    funcs = {}
    for root, _, files in os.walk(os.path.join(main_build, "src")):
        for f in sorted(files):
            if not (f.startswith("libpgmcml_") and f.endswith(".a")):
                continue
            for head, sym, kind in nm(os.path.join(root, f)):
                if kind == "T":
                    funcs.setdefault(sym, head.rpartition("/")[2])
    return funcs


def binaries(build_dirs):
    for build_dir in build_dirs:
        for root, dirs, files in os.walk(build_dir):
            dirs[:] = [d for d in dirs if d != "CMakeFiles"]
            for f in sorted(files):
                path = os.path.join(root, f)
                kind = binary_kind(build_dir, path)
                if kind is not None and is_elf_executable(path):
                    yield kind, path


def demangle(symbols):
    if not symbols:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(symbols),
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("build_dirs", nargs="+",
                    help="main build tree first, then extra trees (perfbench)")
    ap.add_argument("--list", choices=CLASSES, action="append", default=[],
                    help="print the functions of this class")
    ap.add_argument("--fail-on-unshipped", action="store_true",
                    help="exit 1 when a function is reached by no binary, or "
                         "only by tests without being listed in SEAMS")
    args = ap.parse_args()

    funcs = library_functions(args.build_dirs[0])
    if not funcs:
        sys.exit(f"no libpgmcml_*.a archives under {args.build_dirs[0]}/src")

    reached = {kind: set() for kind in CLASSES[:3]}
    counts = {kind: 0 for kind in CLASSES[:3]}
    for kind, path in binaries(args.build_dirs):
        counts[kind] += 1
        reached[kind].update(sym for _, sym, _ in nm(path) if sym in funcs)
    if counts["production"] == 0:
        sys.exit("no production binaries found (CLIs or perfbench)")

    by_class = {kind: [] for kind in CLASSES}
    for sym in funcs:
        cls = next((k for k in CLASSES[:3] if sym in reached[k]), "none")
        by_class[cls].append(sym)

    print("binaries: " + ", ".join(f"{counts[k]} {k}" for k in CLASSES[:3]))
    print(f"library functions: {len(funcs)}")
    for cls in CLASSES:
        print(f"  {cls:<11} {len(by_class[cls])}")
    for cls in args.list:
        print(f"\n[{cls}]")
        syms = sorted(by_class[cls], key=lambda s: (funcs[s], s))
        for sym, name in zip(syms, demangle(syms)):
            print(f"  {funcs[sym]:<36} {name}")

    if not args.fail_on_unshipped:
        return 0
    status = 0
    if by_class["none"]:
        print(f"\n{len(by_class['none'])} library function(s) are reached by "
              "no binary; delete them or name their consumer", file=sys.stderr)
        status = 1
    names = dict(zip(by_class["tests"], demangle(by_class["tests"])))
    unshipped = sorted(n for n in names.values() if n not in SEAMS)
    if unshipped:
        print(f"\n{len(unshipped)} library function(s) are reached only by "
              "tests and are not named seams; delete them, move them under "
              "tests/, or add them to SEAMS with a reason:", file=sys.stderr)
        for name in unshipped:
            print(f"  {name}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
