"""Compiler lookup, the on-disk library cache, ``dlopen``.

One artifact per (library source, compile flags, variant tag) lives in
``$REPRO_CGEN_CACHE`` (default ``~/.cache/repro_cgen``) as ``<key>.so``
with its source ``<key>.c`` beside it.  The source differs per pool width
and per set of compute types a plan's rows take, so a host holds one
library per (width, type set) — one for every plan of an f64 model,
another for an f32 one — each built once, its parts compiled side by
side.  The cache is checked *before* the compiler lookup — a host that
was shipped the cache serves every plan shape with no toolchain — and
every process on a host races for the same file on a cold cache, so both
the source and the object are written under names unique to the call and
published with ``os.replace``: a second starter can never hand ``cc`` (or
``dlopen``) a half-written file, and concurrent compiles both win.  A cached ``.so`` that fails to load is
deleted and recompiled once instead of crashing the plan.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from typing import List, Optional

_ENV_CC = "REPRO_CC"
_ENV_CACHE = "REPRO_CGEN_CACHE"

def _cflags() -> List[str]:
    """The cc invocation.  Contraction is allowed: FMA both doubles GEMM
    throughput and *reduces* rounding error, and the parity probe's
    tolerance band gates it."""
    return ["-shared", "-fPIC", "-O2", "-march=native", "-pthread",
            "-fno-math-errno", "-fvect-cost-model=dynamic",
            "-ffp-contract=fast"]


def find_cc() -> Optional[str]:
    """Locate the C compiler: ``$REPRO_CC`` if set (no fallback — a bad
    value means *no compiler*, which the fallback tests rely on), else
    the first of ``cc``/``gcc``/``clang`` on PATH."""
    env = os.environ.get(_ENV_CC)
    if env:
        return shutil.which(env)
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def default_cache_dir() -> str:
    return os.environ.get(_ENV_CACHE) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro_cgen"
    )


def _plan_variant(threads: int) -> str:
    """Cache-key variant tag: everything besides the literal source that
    selects a different library (the pool width).  The source already
    differs per thread count — the tag makes the keying *structural*
    rather than an accident of codegen."""
    return f"v2:nt{threads}"


def _ensure_so(source: str, cache_dir: str, flags: List[str],
               variant: str = "", parts: int = 1):
    """Return ``(so_path, cache_hit, fail_reason)`` for ``source``.

    The key covers the source hash, the compile flags, and the
    ``variant`` tag (thread count), so two configs can never
    collide on one artifact.  The cache lookup happens *before* the
    compiler lookup: a library compiled once keeps loading after the
    compiler disappears.  A source of several ``parts`` is compiled once
    per part (``-DREPRO_PART=<k>``), side by side, and linked.
    """
    os.makedirs(cache_dir, exist_ok=True)
    key = hashlib.sha256(
        (source + "\0" + " ".join(flags) + "\0" + variant).encode()
    ).hexdigest()[:24]
    so = os.path.join(cache_dir, key + ".so")
    if os.path.exists(so):
        return so, True, None
    cc = find_cc()
    if cc is None:
        return None, False, (
            "no C compiler found (install cc/gcc/clang or set $REPRO_CC)"
        )
    # a directory no other process or thread holds: cc reads a complete
    # source, and nobody loads the object before it is whole
    with tempfile.TemporaryDirectory(prefix=key + ".", dir=cache_dir) as tmp:
        csrc, tmp_so = (os.path.join(tmp, key + ext) for ext in (".c", ".so"))
        with open(csrc, "w") as fh:
            fh.write(source)
        objs = [os.path.join(tmp, f"part{k}.o") for k in range(parts)]
        procs = [
            subprocess.Popen(
                [cc] + flags + ["-c", f"-DREPRO_PART={k}", csrc, "-o", obj],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for k, obj in enumerate(objs)
        ]
        errs = [proc.communicate()[1] for proc in procs]
        failed = [e for proc, e in zip(procs, errs) if proc.returncode != 0]
        if not failed:
            link = subprocess.run(
                [cc] + flags + objs + ["-o", tmp_so, "-lm"],
                capture_output=True, text=True,
            )
            if link.returncode != 0:
                failed = [link.stderr]
        if failed:
            return None, False, (
                f"C compilation failed: {failed[0].strip()[:400]}"
            )
        os.replace(csrc, os.path.join(cache_dir, key + ".c"))
        os.replace(tmp_so, so)  # atomic publish: concurrent compiles both win
    return so, False, None


def _truncated(so: str) -> bool:
    """Whether ``so`` is a 64-bit ELF file shorter than its own section
    table says.  ``dlopen`` maps such a file without complaint and the
    process dies of SIGBUS on the first page past its end, so this is
    checked before loading; anything else wrong with the file ``dlopen``
    reports itself."""
    with open(so, "rb") as fh:
        head = fh.read(64)
    if len(head) < 64 or head[:5] != b"\x7fELF\x02":
        return False
    (shoff,), (shentsize, shnum) = (
        struct.unpack_from("<Q", head, 0x28),
        struct.unpack_from("<HH", head, 0x3A),
    )
    return os.path.getsize(so) < shoff + shentsize * shnum


def _load_lib(source: str, cache_dir: str, flags: List[str],
              variant: str, parts: int = 1):
    """The library for ``source``, loaded: ``(lib, so_path, cache_hit,
    recovered, fail_reason)``.

    A cached ``.so`` that fails to load (truncated write, disk fault,
    stale artifact from an incompatible toolchain) is deleted and
    recompiled once instead of crashing the plan (``recovered``).
    """
    recovered = False
    while True:
        so, hit, err = _ensure_so(source, cache_dir, flags, variant, parts)
        if so is None:
            return None, None, False, recovered, err
        try:
            if _truncated(so):
                raise OSError("file ends before its ELF section table")
            return ctypes.CDLL(so), so, hit, recovered, None
        except OSError as exc:
            if recovered:
                return None, None, False, True, (
                    f"recompiled .so failed to load: {exc}"
                )
            recovered = True
            os.remove(so)
