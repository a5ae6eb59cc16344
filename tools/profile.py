#!/usr/bin/env python3
"""Sampling profiler for a child process, standard library only.

Runs COMMAND as a child, interrupts every thread of it HZ times a second
with PTRACE_SEIZE / PTRACE_INTERRUPT, reads each stopped thread's
instruction pointer, and at exit symbolizes the samples with
`llvm-symbolizer --inlining` (the binary needs line tables: the release
profile keeps `debug = true`). It prints

* the innermost functions by share of samples, and
* the share of each stage of `TimedChip::force_tick`: a sample whose
  inlined frames pass through the tick is charged to the stage whose
  `// 3a.`-style comment in `crates/core/src/timed/mod.rs` precedes the
  line it is on, and a sample in `timed/pe.rs` also to the PE function.

Usage:

    python3 tools/profile.py [--hz 1000] [--top 25] [--repo DIR] -- COMMAND [ARGS...]

With `--stacks`, each sample also walks the frame-pointer chain (build
with `RUSTFLAGS="-C force-frame-pointers=yes"`): a sample is charged to
the innermost tick stage any frame of its stack passes through, so a
stage includes the functions it calls that were not inlined, and the
report adds the inclusive share of every function on the stacks.
Without `--stacks` sampling is leaf-only, so a stage's share is the time
spent in code inlined into it.

Only the child's own threads are traced; nothing else on the machine is
touched.
"""

import argparse
import ctypes
import ctypes.util
import os
import re
import struct
import subprocess
import sys
import time
from collections import Counter

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
# user_regs_struct (x86-64): rbp is the 5th word, rip the 17th.
RBP, RIP = 4, 16
MAX_FRAMES = 48

libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long
Regs = ctypes.c_ulonglong * 27


def ptrace(req, tid, addr=None, data=None):
    return libc.ptrace(req, tid, addr, data)


class Sampler:
    def __init__(self, pid, stacks):
        self.pid = pid
        self.traced = set()
        self.seen = set()  # every thread ever traced
        self.samples = Counter()  # leaf address -> count
        self.stacks = Counter() if stacks else None  # tuple of return addresses -> count
        self.mem = {}

    def attach_new(self):
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{self.pid}/task")]
        except FileNotFoundError:
            return
        for tid in tids:
            if tid not in self.seen and ptrace(PTRACE_SEIZE, tid) == 0:
                self.traced.add(tid)
                self.seen.add(tid)

    def wait_stop(self, tid):
        """Wait for `tid` to stop; re-deliver signals that are not ours.
        Returns False when the thread is gone."""
        while True:
            try:
                _, status = os.waitpid(tid, WALL)
            except ChildProcessError:
                return False
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return False
            if not os.WIFSTOPPED(status):
                continue
            sig = os.WSTOPSIG(status)
            if status >> 16 == PTRACE_EVENT_STOP:
                return True
            # A signal meant for the child: hand it on and keep waiting
            # for the interrupt.
            ptrace(PTRACE_CONT, tid, None, ctypes.c_void_p(sig))

    def sample(self):
        self.attach_new()
        for tid in list(self.traced):
            if ptrace(PTRACE_INTERRUPT, tid) != 0 or not self.wait_stop(tid):
                self.traced.discard(tid)
                continue
            regs = Regs()
            if ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)) == 0:
                self.samples[regs[RIP]] += 1
                if self.stacks is not None:
                    self.stacks[(regs[RIP],) + self.walk(tid, regs[RBP])] += 1
            ptrace(PTRACE_CONT, tid, None, None)

    def walk(self, tid, rbp):
        """Return addresses up the frame-pointer chain of a stopped thread."""
        if tid not in self.mem:
            try:
                self.mem[tid] = os.open(f"/proc/{tid}/mem", os.O_RDONLY)
            except OSError:
                return ()
        out = []
        for _ in range(MAX_FRAMES):
            if rbp == 0 or rbp % 8:
                break
            try:
                frame = os.pread(self.mem[tid], 16, rbp)
            except OSError:
                break
            if len(frame) < 16:
                break
            nxt, ret = struct.unpack("<QQ", frame)
            if ret == 0:
                break
            out.append(ret - 1)  # inside the call instruction
            if nxt <= rbp:
                break
            rbp = nxt
        return tuple(out)


def mappings(pid):
    """Executable file mappings: (start, end, offset, path)."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            out.append((start, end, int(parts[2], 16), parts[5]))
    return out


def load_segments(path):
    """(file offset, virtual address, size) of each PT_LOAD of an ELF64."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def symbolize(path, offsets):
    """file offset -> list of (function, file, line), innermost first."""
    segs = load_segments(path)

    def vaddr(off):
        for p_offset, p_vaddr, size in segs:
            if p_offset <= off < p_offset + size:
                return off - p_offset + p_vaddr
        return off

    query = "\n".join(hex(vaddr(o)) for o in offsets) + "\n"
    res = subprocess.run(
        ["llvm-symbolizer", "--inlining", "--demangle", "--functions=linkage", f"--obj={path}"],
        input=query, capture_output=True, text=True, check=True,
    )
    frames, blocks = {}, res.stdout.split("\n\n")
    for off, block in zip(offsets, blocks):
        lines = block.strip().splitlines()
        chain = []
        for fn, loc in zip(lines[0::2], lines[1::2]):
            m = re.match(r"(.*):(\d+):\d+$", loc)
            chain.append((fn, m.group(1) if m else loc, int(m.group(2)) if m else 0))
        frames[off] = chain
    return frames


def short(fn):
    fn = re.sub(r"<.*>", "<…>", fn)
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    return fn[-90:]


def stage_table(repo):
    """(first line, name) of each `// Na.` stage comment in force_tick."""
    path = os.path.join(repo, "crates/core/src/timed/mod.rs")
    with open(path) as f:
        src = f.read().splitlines()
    start = next(i for i, l in enumerate(src) if "fn force_tick" in l)
    stages, depth_end = [], None
    for i in range(start, len(src)):
        m = re.match(r"\s*// (\d[a-z]?)\. (.*)", src[i])
        if m:
            stages.append((i + 1, f"{m.group(1)}. {m.group(2)[:48]}"))
        if src[i].startswith("    }") and i > start:
            depth_end = i + 1
            break
    return stages, start + 1, depth_end


def stage_of(chain, stages, first, last):
    for fn, path, line in chain:
        if path.endswith("timed/mod.rs") and first <= line <= last:
            name = "tick (before the first stage)"
            for at, label in stages:
                if line >= at:
                    name = label
            return name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--hz", type=float, default=1000.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--lines", action="store_true", help="also list the hottest source lines")
    ap.add_argument("--chains", action="store_true", help="also list the hottest inlined call chains")
    ap.add_argument("--stacks", action="store_true", help="walk frame pointers; list inclusive shares")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command")

    child = subprocess.Popen(cmd)
    sampler = Sampler(child.pid, args.stacks)
    maps, period = [], 1.0 / args.hz
    next_at = time.monotonic()
    while child.poll() is None:
        try:
            maps = mappings(child.pid) or maps
        except (FileNotFoundError, ProcessLookupError):
            break
        sampler.sample()
        next_at += period
        time.sleep(max(0.0, next_at - time.monotonic()))
    for tid in sampler.traced:
        ptrace(PTRACE_DETACH, tid)
    child.wait()

    total = sum(sampler.samples.values())
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1
    def locate(addr):
        for start, end, off, path in maps:
            if start <= addr < end:
                return path, addr - start + off
        return "?", addr

    by_obj = {}
    for addr, n in sampler.samples.items():
        path, off = locate(addr)
        by_obj.setdefault(path, []).append((off, n))

    funcs, stages_c, pe_fns, lines, chains = Counter(), Counter(), Counter(), Counter(), Counter()
    stages, first, last = stage_table(args.repo)

    def charge(chain, n):
        """Charge `n` samples whose frames (innermost first) are `chain`
        to a stage and a PE function."""
        st = stage_of(chain, stages, first, last)
        stages_c[st or "outside the force tick"] += n
        pe = next((fn for fn, p, _ in chain if p.endswith("timed/pe.rs")), None)
        if pe:
            pe_fns[short(pe)] += n

    leaf = {}
    for path, hits in by_obj.items():
        frames = symbolize(path, [o for o, _ in hits]) if os.path.exists(path) else {}
        for off, n in hits:
            chain = frames.get(off) or [("?? " + os.path.basename(path), "", 0)]
            leaf[(path, off)] = chain
            funcs[short(chain[0][0])] += n
            lines[f"{os.path.basename(chain[0][1])}:{chain[0][2]}"] += n
            chains[" < ".join(f"{os.path.basename(p)}:{l}" for _, p, l in chain[:6])] += n
            if sampler.stacks is None:
                charge(chain, n)

    if sampler.stacks is not None:
        callers = {}
        for stack in sampler.stacks:
            for addr in stack[1:]:
                path, off = locate(addr)
                callers.setdefault(path, set()).add(off)
        frames = dict(leaf)
        for path, offs in callers.items():
            if os.path.exists(path):
                for off, chain in symbolize(path, sorted(offs)).items():
                    frames.setdefault((path, off), chain)
        inclusive = Counter()
        for stack, n in sampler.stacks.items():
            # The whole stack, innermost frame first: a stage is the
            # innermost tick line any frame passes through.
            chain = [f for addr in stack for f in frames.get(locate(addr), [])]
            charge(chain, n)
            inclusive.update({fn: n for fn in {short(fn) for fn, _, _ in chain}})

    print(f"{total} samples at {args.hz:g} Hz over {len(sampler.seen)} thread(s)\n")
    print("force_tick stage                                         share")
    for name, n in sorted(stages_c.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<54} {100 * n / total:5.1f} %")
    print("\nPE code (" + ("any frame" if sampler.stacks is not None else "any inlined frame") + " in timed/pe.rs)")
    for name, n in pe_fns.most_common(args.top):
        print(f"  {100 * n / total:5.1f} %  {name}")
    print("\ninnermost functions")
    for name, n in funcs.most_common(args.top):
        print(f"  {100 * n / total:5.1f} %  {name}")
    if sampler.stacks is not None:
        print("\ninclusive share (any frame on the stack)")
        for name, n in inclusive.most_common(args.top):
            print(f"  {100 * n / total:5.1f} %  {name}")
    if args.lines:
        print("\nhottest source lines (innermost frame)")
        for name, n in lines.most_common(args.top):
            print(f"  {100 * n / total:5.1f} %  {name}")
    if args.chains:
        print("\nhottest inlined chains (innermost first)")
        for name, n in chains.most_common(args.top):
            print(f"  {100 * n / total:5.1f} %  {name}")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
