"""Worker-pool runtime and row walk of the cgen kernel library.

The library tiles its heavy kernels (conv GEMMs, linear, max-pool, large
sweeps, the BN forward and backward) over a small persistent pthread pool
that lives *inside* the ``.so`` — one library, so one pool, per pool
width and set of compute types, shared by every plan of the process that
takes that set (every plan of an f64 model, say):

* the pool is spawned once per loaded library (``repro_pool_start``,
  refcounted — every plan takes one reference and drops it on teardown,
  and the workers are joined when the last plan dies);
* a plan is rows of a stage table (kernel id, mt flag, args offset, slot
  indices) that ``repro_run`` walks.  A row flagged ``mt`` is dispatched
  barrier-synced: the driver publishes ``(table, row, args)`` under a
  mutex, wakes the workers, runs the row as tid 0 itself, and waits until
  every worker checked in, so one stage fully finishes before the next
  starts; every other row runs inline (the renderer holds the threshold,
  ``repro_pool_ping`` measures the round trip it is set against);
* per-thread scratch is one heap block of the library (``POOL_SCR(tid)``
  = pointer + ``tid`` x stride) that ``repro_scratch_reserve`` grows and
  never shrinks: a plan reserves its largest stage's need when it loads.
  Kernels keep nothing there between calls and one replay runs at a time
  per library (the engine is single-threaded above the pool).

**Deterministic-reduction rule** (what makes every run reproducible):
the iteration space is partitioned by *fixed tile ownership of output
elements* — thread ``t`` of ``nt`` owns output rows ``[total*t//nt,
total*(t+1)//nt)`` and computes each of its outputs start-to-finish in
the same serial reduction order the single-thread kernel uses.  No
accumulator is ever shared, no atomics exist, and the per-element
arithmetic is independent of both ``nt`` and the tile boundaries, so a
plan's outputs — held to the numpy oracle within the parity band — are
bitwise identical run-to-run *and* across pool widths.

Thread-count resolution is :func:`resolve_threads` (per compilation) and
:func:`serving_threads` (what a serving loop's ``threads`` option means).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

ENV_THREADS = "REPRO_CGEN_THREADS"

# hard cap: far above any profile in hw/device.py, low enough that a
# typo'd REPRO_CGEN_THREADS cannot fork-bomb the host
MAX_THREADS = 64


def resolve_threads(explicit: Optional[int] = None) -> int:
    """Resolve the worker-pool width for one plan compilation.

    Priority: ``explicit`` (a ``CGenBackend.threads`` / ``--threads``
    value) > ``$REPRO_CGEN_THREADS`` > the host CPU count.  Always
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
        else:
            n = os.cpu_count() or 1
    return max(1, min(n, MAX_THREADS))


def serving_threads(cfg_threads: Optional[int]) -> Optional[int]:
    """Pool width a serving loop's ``threads`` option selects: ``None``
    stays ``None`` — the roofline prices one thread and the compiled
    plans take the backend's own width (:func:`resolve_threads`:
    ``$REPRO_CGEN_THREADS``, else the host CPUs; outputs are bitwise the
    same at every width); an explicit width fixes both, and outranks any
    device core count in :func:`resolve_threads`."""
    return None if cfg_threads is None else resolve_threads(cfg_threads)


def tile_bounds(total: int, tid: int, nt: int) -> Tuple[int, int]:
    """Python mirror of the C partition formula (tests assert against it).

    Thread ``tid`` of ``nt`` owns ``[total*tid//nt, total*(tid+1)//nt)``
    — contiguous, exhaustive, non-overlapping, and empty when there are
    more threads than rows.
    """
    return (total * tid) // nt, (total * (tid + 1)) // nt


def pool_runtime_source(nt: int) -> str:
    """The C worker-pool runtime and row walk closing the kernel library
    (after its ``KERNELS`` table); ``nt`` is the pool width baked into it
    (``POOL_NT``)."""
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
static const stage_row* POOL_ROW = 0;
static const char* POOL_BLOB = 0;
char* POOL_SCRATCH = 0;
i64 SCR_STRIDE = 0;

static inline void stage_call(char** T, const stage_row* row,
                              const char* args, i64 tid, i64 nt) {{
    KERNELS[row->kernel](T, row->slot, args + row->args, tid, nt);
}}

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
        const stage_row* row = POOL_ROW;
        const char* args = POOL_BLOB;
        pthread_mutex_unlock(&POOL_MU);
        if (row) stage_call(tab, row, args, tid, POOL_NT);
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

/* Grow the per-thread scratch to at least `bytes` a thread; returns the
 * stride now in place (the old one when the allocation fails).  Kernels
 * keep nothing there between calls, so growing is a swap; plans reserve
 * when they load, never during a replay. */
i64 repro_scratch_reserve(i64 bytes) {{
    const i64 stride = (bytes + 63) / 64 * 64;
    pthread_mutex_lock(&POOL_MU);
    if (stride > SCR_STRIDE) {{
        char* block = (char*)aligned_alloc(64, POOL_NT * stride);
        if (block) {{
            memset(block, 0, POOL_NT * stride);
            free(POOL_SCRATCH);
            POOL_SCRATCH = block;
            SCR_STRIDE = stride;
        }}
    }}
    const i64 have = SCR_STRIDE;
    pthread_mutex_unlock(&POOL_MU);
    return have;
}}

/* one barrier-synced round trip: publish (table, row), wake the
 * workers, work as tid 0, wait for every worker to check in.  A null
 * row is the empty stage repro_pool_ping times. */
static void pool_dispatch(char** T, const stage_row* row, const char* args) {{
    pthread_mutex_lock(&POOL_MU);
    POOL_TAB = T;
    POOL_ROW = row;
    POOL_BLOB = args;
    POOL_NDONE = 0;
    POOL_EPOCH++;
    pthread_cond_broadcast(&POOL_GO);
    pthread_mutex_unlock(&POOL_MU);
    if (row) stage_call(T, row, args, 0, POOL_NT);
    pthread_mutex_lock(&POOL_MU);
    while (POOL_NDONE < POOL_NT - 1)
        pthread_cond_wait(&POOL_DONE, &POOL_MU);
    pthread_mutex_unlock(&POOL_MU);
}}

/* `reps` empty-stage round trips: what a tiled stage pays before its
 * first useful instruction (the pool_dispatch_us micro-benchmark row) */
void repro_pool_ping(i64 reps) {{
    if (POOL_NT > 1 && POOL_LIVE)
        for (i64 q = 0; q < reps; ++q) pool_dispatch(0, 0, 0);
}}

/* the plan's rows `ids`, in order: over the pool when the row is tiled */
void repro_run(char** T, const stage_row* rows, const char* args,
               const i64* ids, i64 n) {{
    for (i64 q = 0; q < n; ++q) {{
        const stage_row* row = rows + ids[q];
        if (POOL_NT > 1 && POOL_LIVE && row->mt)
            pool_dispatch(T, row, args);
        else
            stage_call(T, row, args, 0, 1);
    }}
}}

/* test entry: one row as every thread of an `nt`-wide pool in turn
 * (ownership is fixed and disjoint, so one thread after another writes
 * what they would side by side); nt <= POOL_NT */
void repro_stage_as(char** T, const stage_row* rows, const char* args,
                    i64 id, i64 nt) {{
    for (i64 t = 0; t < nt; ++t) stage_call(T, rows + id, args, t, nt);
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
