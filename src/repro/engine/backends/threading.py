"""Worker-pool runtime for the threaded C plan backend.

The cgen renderer tiles its heavy kernels (conv GEMMs, linear, max-pool,
large elementwise sweeps, the rendered BN backward) over a small
persistent pthread pool that lives *inside* the generated ``.so``:

* the pool is spawned once per loaded library (``repro_pool_start``,
  refcounted — every plan holding the library takes one reference and
  drops it on teardown, so two plans sharing a cached ``.so`` share one
  pool and the workers are joined when the last plan dies);
* each stage dispatch is barrier-synced: the driver publishes
  ``(table, stage)`` under a mutex, wakes the workers, runs the stage as
  tid 0 itself, and waits until every worker checked in — replay
  semantics and the runtime pointer table are exactly the single-thread
  backend's, one stage fully finishes before the next starts;
* stages whose estimated kernel time does not repay that round trip
  (``repro_pool_ping`` measures it; the renderer holds the threshold)
  are flagged non-threadable and run inline on the dispatching thread.

**Deterministic-reduction rule** (what keeps ``cgen-strict`` bitwise and
every run reproducible): the iteration space is partitioned by *fixed
tile ownership of output elements* — thread ``t`` of ``nt`` owns output
rows ``[total*t//nt, total*(t+1)//nt)`` and computes each of its outputs
start-to-finish in the same serial reduction order the single-thread
kernel uses.  No accumulator is ever shared, no atomics exist, and the
per-element arithmetic is independent of both ``nt`` and the tile
boundaries, so outputs are bitwise identical run-to-run *and* across
thread counts.  Per-thread conv scratch (one padded sample and the tap
offsets) lives in a static arena inside the ``.so`` (``POOL_SCR(tid)``),
sized at render time.

Thread-count resolution is :func:`resolve_threads` (per compilation) and
:func:`serving_threads` (what a serving loop's ``threads`` option means).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

ENV_THREADS = "REPRO_CGEN_THREADS"

# hard cap: far above any profile in hw/device.py, low enough that a
# typo'd REPRO_CGEN_THREADS cannot fork-bomb the host
MAX_THREADS = 64


@dataclass(frozen=True)
class CGenConfig:
    """Configuration of one cgen backend instance.

    ``parity`` selects the kernel family (``"band"`` — fast kernels held
    to a per-dtype float tolerance; ``"strict"`` — bitwise-reproducible
    kernels).  ``threads`` is the worker-pool width baked into rendered
    plans; ``None`` defers to :func:`resolve_threads` at compile time.
    """

    parity: str = "band"
    threads: Optional[int] = None

    def __post_init__(self):
        if self.parity not in ("band", "strict"):
            raise ValueError(
                f"parity must be 'band' or 'strict': {self.parity!r}"
            )
        if self.threads is not None and int(self.threads) < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def resolve_threads(explicit: Optional[int] = None,
                    device_cores: Optional[int] = None) -> int:
    """Resolve the worker-pool width for one plan compilation.

    Priority: ``explicit`` (a ``CGenConfig.threads`` / ``--threads``
    value) > ``$REPRO_CGEN_THREADS`` > ``device_cores`` (the serving
    device profile's CPU core count) > the host CPU count.  Always
    clamped to ``[1, MAX_THREADS]``.
    """
    if explicit is not None:
        n = int(explicit)
    else:
        env = os.environ.get(ENV_THREADS)
        if env:
            try:
                n = int(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_THREADS} must be an integer, got {env!r}"
                ) from None
        elif device_cores:
            n = int(device_cores)
        else:
            n = os.cpu_count() or 1
    return max(1, min(n, MAX_THREADS))


def serving_threads(cfg_threads: Optional[int]) -> Optional[int]:
    """Pool width a serving loop's ``threads`` option selects: ``None``
    keeps single-thread plans *and* single-thread roofline pricing
    (bitwise-stable with pre-threading runs); an explicit width threads
    both, and outranks any device core count in :func:`resolve_threads`."""
    return None if cfg_threads is None else resolve_threads(cfg_threads)


def tile_bounds(total: int, tid: int, nt: int) -> Tuple[int, int]:
    """Python mirror of the C partition formula (tests assert against it).

    Thread ``tid`` of ``nt`` owns ``[total*tid//nt, total*(tid+1)//nt)``
    — contiguous, exhaustive, non-overlapping, and empty when there are
    more threads than rows.
    """
    return (total * tid) // nt, (total * (tid + 1)) // nt


def scratch_prelude(nt: int, scratch_bytes: int) -> str:
    """Per-thread scratch arena, emitted *before* the stage functions
    (they address their share through ``POOL_SCR(tid)``).

    ``scratch_bytes`` is the largest per-thread need of any stage (one
    conv's tap offsets and padded sample, slack for the last panel
    included); the stride is 64-aligned, and so is the arena, so threads
    never share a cache line.
    """
    stride = max((scratch_bytes + 63) // 64 * 64, 64)
    words = (nt * stride) // 8
    return (
        f"#define SCR_STRIDE {stride}LL\n"
        f"static double POOL_SCRATCH[{words}] __attribute__((aligned(64)));\n"
        "#define POOL_SCR(t) "
        "((char*)POOL_SCRATCH + (i64)(t) * SCR_STRIDE)\n"
    )


def pool_runtime_source(nt: int) -> str:
    """The C worker-pool runtime embedded in every rendered TU.

    ``nt`` is the pool width baked into this plan (``POOL_NT``).  Stage
    functions take ``(char** T, i64 tid, i64 nt)`` and the driver either
    dispatches a stage across the pool (``STAGE_MT`` set) or runs it
    inline single-threaded.  Emitted *after* the stage table — it
    references ``STAGES`` / ``STAGE_MT``.
    """
    return f"""
#define POOL_NT {nt}LL

static pthread_mutex_t POOL_MU = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t POOL_GO = PTHREAD_COND_INITIALIZER;
static pthread_cond_t POOL_DONE = PTHREAD_COND_INITIALIZER;
static pthread_t POOL_T[POOL_NT > 1 ? POOL_NT - 1 : 1];
static i64 POOL_REFS = 0;   /* live plan handles on this library */
static i64 POOL_LIVE = 0;   /* workers currently spawned */
static i64 POOL_QUIT = 0;
static i64 POOL_EPOCH = 0;  /* work generation, bumped per dispatch */
static i64 POOL_NDONE = 0;  /* workers finished the current epoch */
static char** POOL_TAB = 0;
static i64 POOL_SID = -1;

static void* pool_worker(void* argp) {{
    i64 tid = (i64)(intptr_t)argp;
    /* epoch 0 is never dispatched (start resets it, dispatch pre-
     * increments), so a freshly spawned worker always waits for the
     * first bump — reading the live epoch here instead would race a
     * concurrent dispatch and miss its wakeup forever */
    i64 seen = 0;
    pthread_mutex_lock(&POOL_MU);
    for (;;) {{
        while (!POOL_QUIT && POOL_EPOCH == seen)
            pthread_cond_wait(&POOL_GO, &POOL_MU);
        if (POOL_QUIT) break;
        seen = POOL_EPOCH;
        char** tab = POOL_TAB;
        i64 sid = POOL_SID;
        pthread_mutex_unlock(&POOL_MU);
        if (sid >= 0) STAGES[sid](tab, tid, POOL_NT);
        pthread_mutex_lock(&POOL_MU);
        if (++POOL_NDONE == POOL_NT - 1)
            pthread_cond_signal(&POOL_DONE);
    }}
    pthread_mutex_unlock(&POOL_MU);
    return 0;
}}

i64 repro_pool_start(void) {{
    pthread_mutex_lock(&POOL_MU);
    POOL_REFS++;
    if (!POOL_LIVE && POOL_NT > 1) {{
        POOL_QUIT = 0;
        POOL_EPOCH = 0;
        for (i64 t = 1; t < POOL_NT; ++t)
            pthread_create(&POOL_T[t - 1], 0, pool_worker,
                           (void*)(intptr_t)t);
        POOL_LIVE = 1;
    }}
    pthread_mutex_unlock(&POOL_MU);
    return POOL_NT;
}}

void repro_pool_stop(void) {{
    pthread_mutex_lock(&POOL_MU);
    i64 refs = --POOL_REFS;
    i64 live = POOL_LIVE;
    if (refs <= 0 && live) {{
        POOL_QUIT = 1;
        POOL_LIVE = 0;
        pthread_cond_broadcast(&POOL_GO);
    }}
    pthread_mutex_unlock(&POOL_MU);
    if (refs <= 0 && live)
        for (i64 t = 1; t < POOL_NT; ++t)
            pthread_join(POOL_T[t - 1], 0);
}}

i64 repro_pool_refs(void) {{
    pthread_mutex_lock(&POOL_MU);
    i64 refs = POOL_REFS;
    pthread_mutex_unlock(&POOL_MU);
    return refs;
}}

i64 repro_pool_width(void) {{ return POOL_NT; }}

/* one barrier-synced round trip: publish (table, stage), wake the
 * workers, work as tid 0, wait for every worker to check in.  sid < 0
 * is the empty stage repro_pool_ping times. */
static void pool_dispatch(char** T, i64 sid) {{
    pthread_mutex_lock(&POOL_MU);
    POOL_TAB = T;
    POOL_SID = sid;
    POOL_NDONE = 0;
    POOL_EPOCH++;
    pthread_cond_broadcast(&POOL_GO);
    pthread_mutex_unlock(&POOL_MU);
    if (sid >= 0) STAGES[sid](T, 0, POOL_NT);
    pthread_mutex_lock(&POOL_MU);
    while (POOL_NDONE < POOL_NT - 1)
        pthread_cond_wait(&POOL_DONE, &POOL_MU);
    pthread_mutex_unlock(&POOL_MU);
}}

/* `reps` empty-stage round trips: what a tiled stage pays before its
 * first useful instruction (the pool_dispatch_us micro-benchmark row) */
void repro_pool_ping(i64 reps) {{
    if (POOL_NT > 1 && POOL_LIVE)
        for (i64 q = 0; q < reps; ++q) pool_dispatch(0, -1);
}}

void repro_run(char** T, const i64* ids, i64 n) {{
    for (i64 q = 0; q < n; ++q) {{
        i64 sid = ids[q];
        if (POOL_NT > 1 && POOL_LIVE && STAGE_MT[sid])
            pool_dispatch(T, sid);
        else
            STAGES[sid](T, 0, 1);
    }}
}}
"""


class PoolHandle:
    """One plan's refcount on its loaded library's worker pool.

    Created at finalize (after ``repro_pool_start``), stored in the
    plan's keep-alive list; when the plan is garbage-collected the
    handle drops the reference and the library joins its workers once
    the last sharing plan is gone.  ``close`` is idempotent.
    """

    def __init__(self, lib):
        self._stop = lib.repro_pool_stop
        self._lib = lib  # keep the dlopen handle alive until we closed

    def close(self) -> None:
        stop = self._stop
        if stop is not None:
            self._stop = None
            stop()
            self._lib = None

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
