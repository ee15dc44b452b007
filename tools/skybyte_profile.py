#!/usr/bin/env python3
"""Where host time goes: exclusive share per symbol from SIGPROF samples.

    tools/skybyte_profile.py [--lines] -- PROGRAM [ARGS...]

Runs PROGRAM with the sampler (libskybyte_sampler.so, built by the
top-level CMake project) preloaded, then prints the 25 largest rows.
Each sample is charged to the function whose code holds the interrupted
program counter (exclusive time). Samples in shared libraries are
charged to the library. --lines also splits each program sample by
source line (needs a -g build). Symbols come from `nm -C -n`, lines
from `addr2line`.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys
import tempfile

TOP = 25
HERE = os.path.dirname(os.path.abspath(__file__))


def find_sampler():
    for build in ("build", "build-release", "build-rel"):
        path = os.path.join(HERE, "..", build, "libskybyte_sampler.so")
        if os.path.exists(path):
            return os.path.abspath(path)
    return None


def read_samples(path):
    """@return ([(base, start, end, path)], [pc]) from a samples file."""
    objects, pcs = [], []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=4)
            if parts[0] == "obj":
                base, start, end = (int(x, 16) for x in parts[1:4])
                name = parts[4].strip() if len(parts) > 4 else ""
                objects.append((base, start, end, name))
            elif parts[0] == "pc":
                pcs.append(int(parts[1], 16))
    return objects, pcs


def text_symbols(exe):
    """Sorted (address, name) of the code symbols of @p exe."""
    out = subprocess.run(["nm", "-C", "-n", exe], capture_output=True,
                         text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        m = re.match(r"([0-9a-f]+) ([tTwW]) (.*)", line)
        if m:
            syms.append((int(m.group(1), 16), m.group(3)))
    return syms


def source_lines(exe, addrs):
    """{address: "file:line"} for @p addrs, via one addr2line call."""
    if not addrs:
        return {}
    out = subprocess.run(["addr2line", "-e", exe],
                         input="\n".join("%x" % a for a in addrs),
                         capture_output=True, text=True, check=True).stdout
    return {a: os.path.relpath(l) if l.startswith("/") else l
            for a, l in zip(addrs, out.splitlines())}


def report(samples_path, lines):
    objects, pcs = read_samples(samples_path)
    if not objects or not pcs:
        sys.exit("skybyte_profile: no samples in " + samples_path)
    base, start, end, exe = objects[0]
    syms = text_symbols(exe)
    addrs = [a for a, _ in syms]
    by_sym = collections.Counter()
    by_line = collections.Counter()
    in_exe = []
    for pc in pcs:
        if start <= pc < end:
            addr = pc - base
            i = bisect.bisect_right(addrs, addr) - 1
            by_sym[syms[i][1] if i >= 0 else "??"] += 1
            in_exe.append(addr)
            continue
        owner = next((os.path.basename(o[3]) for o in objects[1:]
                      if o[1] <= pc < o[2]), "??")
        by_sym["[" + owner + "]"] += 1
    total = len(pcs)
    print("%d samples, %s" % (total, exe))
    print("%7s %7s  %s" % ("share", "samples", "function (exclusive)"))
    for name, n in by_sym.most_common(TOP):
        print("%6.1f%% %7d  %s" % (100.0 * n / total, n, name))
    if not lines:
        return
    where = source_lines(exe, sorted(set(in_exe)))
    for addr in in_exe:
        i = bisect.bisect_right(addrs, addr) - 1
        by_line[(where.get(addr, "??"), syms[i][1] if i >= 0 else "??")] += 1
    print()
    print("%7s %7s  %s" % ("share", "samples", "source line (function)"))
    for (loc, name), n in by_line.most_common(TOP):
        print("%6.1f%% %7d  %s (%s)" % (100.0 * n / total, n, loc, name))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sampler", default=find_sampler(),
                        help="path to libskybyte_sampler.so")
    parser.add_argument("--interval-us", type=int, default=1000,
                        help="CPU time between samples (default 1000)")
    parser.add_argument("--lines", action="store_true",
                        help="also split samples by source line")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give a command to run")
    if not args.sampler:
        parser.error("libskybyte_sampler.so not found; pass --sampler")
    with tempfile.TemporaryDirectory() as tmp:
        samples = os.path.join(tmp, "samples.txt")
        env = dict(os.environ, LD_PRELOAD=args.sampler,
                   SKYBYTE_SAMPLES=samples,
                   SKYBYTE_SAMPLE_US=str(args.interval_us))
        code = subprocess.run(command, env=env).returncode
        if code != 0:
            print("skybyte_profile: command exited %d" % code,
                  file=sys.stderr)
        report(samples, args.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
