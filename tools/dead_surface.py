#!/usr/bin/env python3
"""Library functions that no bench, example, tool or harness links.

    python3 tools/dead_surface.py [--rev REV] [--work-dir D]

Exports REV (default HEAD) with `git archive` into the work directory
(default .dead_surface/ at the repository root) and builds it twice at -O0 with -ffunction-sections -fdata-sections and
-Wl,--gc-sections: the repository with tests off (every bench, example and
tool), and perfbench/ (perfbench and perfbench_traced). At -O0 nothing is
inlined, so every library function a program calls survives the linker's
garbage collection as a symbol of that program.

The library surface is every `jmb::` function that `nm -C --defined-only`
lists as T or W in a libjmb_*.a archive. A function is linked when some
program defines it. The report groups the functions no program links by
qualified name, so overloads count once and each is listed under its name:

  dead              what no program links;
  perf_micro only   what only the perf_micro benchmark links.

The exit code is 1 when a dead function is not on KEEP below, by its full
signature or by its qualified name (each entry says why it stays although
nothing links it), 0 otherwise. A KEEP entry that matches nothing dead is
noted so it can be dropped.

Blind spot: a function defined inline in a header is emitted only by the
translation units that call it, so one that nothing calls appears in no
archive and is invisible here. Oscillator::injected_phase_rad() and
injected_cfo_hz() had no caller anywhere and the survey never listed
them; find such functions by grepping for their callers.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MICRO = "perf_micro"
JOBS = min(4, os.cpu_count() or 1)
BUILD_TIMEOUT_S = 3600
FLAGS = "-O0 -ffunction-sections -fdata-sections"

# Signature or qualified name -> why it stays although no program links it.
KEEP = {
    "jmb::CMatrix::CMatrix(std::initializer_list<std::initializer_list"
    "<std::complex<double> > >)": "writes matrix literals in tests",
    "jmb::core::run_decoupled":
        "the paper's section 7 decoupled-AP mechanism, checked by its tests",
    "jmb::core::DecoupledResult::~DecoupledResult": "run_decoupled's result",
    "jmb::fault::FaultPlan::to_json":
        "the plan parser's tests round-trip plans through it",
    "jmb::obs::flight::reset_dump_count_for_test": "test seam",
    "jmb::obs::flight::set_dump_dir_for_test": "test seam",
    "jmb::obs::reset_alloc_counts": "test seam: zeroes the counting allocator",
    "jmb::fft": "the reference the planned FFT is checked against",
}

_ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
_TRAILING = re.compile(r"\s*(const|volatile|&&|&|noexcept)\s*$")


def qualified_name(signature):
    """The function's qualified name: no return type, parameters or tags."""
    s = _ABI_TAG.sub("", signature).strip()
    while True:
        t = _TRAILING.sub("", s)
        if t == s:
            break
        s = t
    if s.endswith(")"):
        depth = 0
        for i in range(len(s) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(s[i], 0)
            if depth == 0:
                s = s[:i]
                break
    # A template function's signature starts with its return type.
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        c = s[i]
        depth += {">": 1, "<": -1}.get(c, 0)
        if c == " " and depth == 0 and not s[:i].endswith("operator"):
            return s[i + 1:]
    return s


def defined_functions(nm_lines):
    """Demangled T/W symbols of `nm -C --defined-only` output."""
    out = set()
    for line in nm_lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in ("T", "W"):
            out.add(parts[2].strip())
    return out


def classify(archive_lines, program_lines):
    """(dead, micro_only): {qualified name: sorted signatures} for each.

    archive_lines: nm lines of the libjmb_*.a archives.
    program_lines: {program name: nm lines of that program}.
    """
    library = {s for s in defined_functions(archive_lines)
               if qualified_name(s).startswith("jmb::")}
    linked, micro = set(), set()
    for program, lines in program_lines.items():
        (micro if program == MICRO else linked).update(
            defined_functions(lines))
    dead, micro_only = {}, {}
    for sig in library - linked:
        group = micro_only if sig in micro else dead
        group.setdefault(qualified_name(sig), []).append(sig)
    for group in (dead, micro_only):
        for name in group:
            group[name].sort()
    return dead, micro_only


def verdict(dead, keep=None):
    """(dead signatures off the keep-list, keep entries matching nothing)."""
    keep = KEEP if keep is None else keep
    unexpected = sorted(sig for name, sigs in dead.items() for sig in sigs
                        if sig not in keep and name not in keep)
    matched = {k for name, sigs in dead.items() for sig in sigs
               for k in (name, sig) if k in keep}
    stale = sorted(k for k in keep if k not in matched)
    return unexpected, stale


def report(dead, micro_only, keep=None, out=sys.stdout):
    keep = KEEP if keep is None else keep
    unexpected, stale = verdict(dead, keep)
    print(f"dead: {len(dead)} name(s) no program links", file=out)
    for name in sorted(dead):
        print(f"  {name}", file=out)
        for sig in dead[name]:
            why = keep.get(sig, keep.get(name))
            tag = f"keep: {why}" if why else "NOT ON KEEP"
            print(f"      {sig}  [{tag}]", file=out)
    print(f"perf_micro only: {len(micro_only)} name(s)", file=out)
    for name in sorted(micro_only):
        print(f"  {name}", file=out)
        for sig in micro_only[name]:
            print(f"      {sig}", file=out)
    for entry in stale:
        print(f"note: keep entry {entry} matches nothing dead; drop it",
              file=out)
    if unexpected:
        print(f"{len(unexpected)} dead function(s) outside the keep-list",
              file=out)
    return 1 if unexpected else 0


def nm(path):
    proc = subprocess.run(["nm", "-C", "--defined-only", path],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def walk(build_dir):
    """(archives, {program name: path}) under a build tree."""
    archives, programs = [], {}
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for f in filenames:
            path = os.path.join(dirpath, f)
            if f.startswith("libjmb_") and f.endswith(".a"):
                archives.append(path)
            elif is_elf_executable(path):
                programs[f] = path
    return sorted(archives), programs


def cmake_build(source, build, extra, targets=()):
    flags = [f"-DCMAKE_CXX_FLAGS={FLAGS}", "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
    subprocess.run(["cmake", "-S", source, "-B", build] + flags + extra,
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    cmd = ["cmake", "--build", build, "-j", str(JOBS)]
    if targets:
        cmd += ["--target", *targets]
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def export(rev, dest):
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD")
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".dead_surface"))
    args = ap.parse_args(argv)

    work = os.path.abspath(args.work_dir)
    tree = os.path.join(work, "tree")
    export(args.rev, tree)
    repo_build = os.path.join(work, "build")
    bench_build = os.path.join(work, "bench_build")
    cmake_build(tree, repo_build, ["-DJMB_BUILD_TESTS=OFF"])
    cmake_build(os.path.join(tree, "perfbench"), bench_build, [],
                ("perfbench", "perfbench_traced"))

    archives, programs = walk(repo_build)
    _, harness = walk(bench_build)
    programs.update({p: harness[p] for p in ("perfbench", "perfbench_traced")})
    if not archives or MICRO not in programs:
        raise SystemExit("dead_surface: build produced no libjmb_*.a "
                         "archives or no perf_micro")
    archive_lines = [line for a in archives for line in nm(a)]
    program_lines = {p: nm(path) for p, path in programs.items()}
    print(f"{len(archives)} archive(s), {len(programs)} program(s): "
          f"{' '.join(sorted(programs))}", file=sys.stderr)
    dead, micro_only = classify(archive_lines, program_lines)
    return report(dead, micro_only)


if __name__ == "__main__":
    sys.exit(main())
