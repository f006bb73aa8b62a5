#!/usr/bin/env python3
"""Sampling CPU profile of one command, standard library only.

    python3 bench/sample_profile.py [--min-samples N] [--expect-top NAME]
        -- COMMAND [ARG...]

Compiles a small SIGPROF preload object with `cc` into a temporary
directory and runs COMMAND with it in LD_PRELOAD. The object arms
ITIMER_PROF at a 1 ms interval of process CPU time (the kernel's timer
tick may cap the rate lower), records the interrupted program counter
on every tick, and at exit writes the samples and its memory map.
The program counters are symbolized with `addr2line -f -C -i -a`, so
the command should carry debug info (-g); a Release build with -g
keeps the optimized code and only adds line tables.

Two tables of the top 15 rows are printed:

  - by outermost frame: the out-of-line function each sample landed
    in, with everything inlined into it (self time plus inlined
    callees);
  - by inlined function: the innermost function at the sampled PC.

Objects without debug info (libc, say) are named by addr2line after the
nearest exported symbol, or shown as [object name].

Only COMMAND and what it starts carry the preload. gprof's -pg
instrumentation distorts small functions, and perf is not always
installed; this needs only a C compiler and binutils.

Exit status: COMMAND's when it fails; 1 when --min-samples or
--expect-top is not met (--expect-top NAME passes when NAME is a
substring of the top outermost frame); 0 otherwise.
"""

import argparse
import collections
import functools
import glob
import os
import re
import struct
import subprocess
import sys
import tempfile

TOP = 15

PRELOAD_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define CAP (1 << 20)
static unsigned long pcs[CAP];
static unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#endif
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        pcs[i] = pc;
}
__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, 0);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/samples.%d", getenv("RHO_PROF_DIR"), getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    unsigned long total = n < CAP ? n : CAP;
    for (unsigned long i = 0; i < total; ++i) fprintf(out, "pc %lx\n", pcs[i]);
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    fclose(maps);
    fclose(out);
}
"""


def build_preload(tmp):
    src = os.path.join(tmp, "sample_preload.c")
    lib = os.path.join(tmp, "sample_preload.so")
    with open(src, "w") as f:
        f.write(PRELOAD_C)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, src],
                   check=True)
    return lib


def read_samples(path):
    """(program counters, executable mappings) of one process."""
    pcs, maps = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
                continue
            fields = rest.split()
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5]))
    return pcs, maps


@functools.lru_cache(maxsize=None)
def load_segments(path):
    """PT_LOAD (p_offset, p_filesz, p_vaddr) of an ELF64 PIE or shared
    object, whose addresses are relative to the load base; None for
    anything else (a fixed-address executable, a missing file)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    if len(data) < 64 or data[:4] != b"\x7fELF" or data[4] != 2:
        return None
    end = "<" if data[5] == 1 else ">"
    e_type, = struct.unpack_from(end + "H", data, 16)
    if e_type != 3:  # ET_DYN
        return None
    phoff, = struct.unpack_from(end + "Q", data, 32)
    phentsize, phnum = struct.unpack_from(end + "HH", data, 54)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            end + "IIQQQQ", data, phoff + i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def locate(pc, maps):
    """(object path, address to pass to addr2line) for one pc.

    addr2line takes link-time virtual addresses. In a PIE or shared
    object the pc is first turned into a file offset through its
    mapping, then into a virtual address through the PT_LOAD segment
    holding that offset (p_vaddr and p_offset differ by layout)."""
    for lo, hi, offset, path in maps:
        if lo <= pc < hi:
            segments = load_segments(path)
            if segments is None:
                return path, pc
            file_offset = pc - lo + offset
            for p_offset, p_filesz, p_vaddr in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    return path, file_offset - p_offset + p_vaddr
            sys.exit(f"sample_profile: offset {file_offset:#x} of {path} "
                     "is in no PT_LOAD segment")
    return "?", pc


def symbolize(obj, addrs):
    """{address: [innermost function, ..., outermost function]}."""
    unknown = [f"[{os.path.basename(obj)}]"]
    if not os.path.isfile(obj):
        return {a: unknown for a in addrs}
    # -a prints each address on its own line, then one (function,
    # file:line) pair per frame, innermost first.
    lines = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", obj]
        + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    frames = {}
    current = None
    for line in lines:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = int(line, 16)
            frames[current] = []
        elif current is not None:
            frames[current].append(line)
    named = {}
    for a in addrs:
        funcs = [f for f in frames.get(a, [])[0::2] if f != "??"]
        named[a] = funcs or unknown
    return named


def profile(files):
    """Counters by outermost and by innermost frame, and the total."""
    outer, inner = collections.Counter(), collections.Counter()
    total = 0
    for path in files:
        pcs, maps = read_samples(path)
        by_obj = collections.defaultdict(list)
        for pc in pcs:
            by_obj[locate(pc, maps)].append(pc)
        per_obj = collections.defaultdict(set)
        for obj, addr in by_obj:
            per_obj[obj].add(addr)
        names = {obj: symbolize(obj, sorted(addrs))
                 for obj, addrs in per_obj.items()}
        for (obj, addr), hits in by_obj.items():
            frames = names[obj][addr]
            outer[frames[-1]] += len(hits)
            inner[frames[0]] += len(hits)
            total += len(hits)
    return outer, inner, total


def print_table(title, counts, total):
    print(f"{title} ({total} samples)")
    for name, hits in counts.most_common(TOP):
        print(f"  {100.0 * hits / total:6.2f}%  {hits:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(
        description="Sampling CPU profile of one command.")
    ap.add_argument("--min-samples", type=int, default=0,
                    help="fail with fewer samples than this")
    ap.add_argument("--expect-top", metavar="NAME",
                    help="fail unless NAME is in the top outermost frame")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    if not command:
        ap.error("no command given")

    with tempfile.TemporaryDirectory(prefix="sample_profile.") as tmp:
        env = dict(os.environ, LD_PRELOAD=build_preload(tmp),
                   RHO_PROF_DIR=tmp)
        status = subprocess.run(command, env=env).returncode
        if status != 0:
            print(f"sample_profile: command exited {status}",
                  file=sys.stderr)
            return status
        outer, inner, total = profile(
            sorted(glob.glob(os.path.join(tmp, "samples.*"))))

    if total == 0:
        print("sample_profile: no samples", file=sys.stderr)
        return 1
    print_table("by outermost frame (self + inlined callees)", outer, total)
    print_table("by inlined function", inner, total)
    if total < args.min_samples:
        print(f"sample_profile: {total} samples < {args.min_samples}",
              file=sys.stderr)
        return 1
    if args.expect_top:
        top = outer.most_common(1)[0][0]
        if args.expect_top not in top:
            print(f"sample_profile: top frame is {top!r}, not "
                  f"{args.expect_top!r}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
