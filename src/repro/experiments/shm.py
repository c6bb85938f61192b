"""Shared-memory transport of mapping subjects to pool workers.

A Table-3 run maps the same optimized AIG under several libraries and
objectives.  The flow output and the enumerated cuts are pure functions of
the subject, so the parent can compute them once and *publish* the flat
numpy buffers -- the :class:`~repro.synthesis.aig_array.AigArrays` fanin /
level / output arrays plus the :class:`~repro.synthesis.cuts.CutSet`
struct-of-arrays -- into one ``multiprocessing.shared_memory`` segment per
subject.  Workers then *resolve* a tiny picklable :class:`SubjectHandle`
(names, dtypes, offsets) back into a fully usable ``Aig`` with its array
view and cut memos pre-installed, instead of re-running the optimization
flow and cut enumeration per process.

Subjects are keyed by the content-addressed structure hash of the optimized
AIG (:func:`repro.experiments.engine.aig_fingerprint`) plus the enumeration
parameters, so a handle can never resolve against a stale segment of a
different structure.  Only a process that lacks the subject resolves a
handle (the publisher and fork-started workers already hold it in the
engine's subject memo); it attaches each segment at most once, via
:data:`_ATTACHED`.  Attached arrays stay zero-copy views of the shared
segment (marked read-only); the segment itself is kept alive by the
registry entry, which lives as long as the worker -- one pool, one batch --
and is closed by :func:`drop_attachments` when the worker exits.

The publisher owns the segment lifetime: :func:`release_subjects` unlinks
every published segment once the batch's pool has drained.  Platforms
without usable POSIX shared memory simply raise ``OSError`` from
:func:`publish_subject`; the engine then falls back to shipping bare job
specs (workers recompute the subject, exactly the pre-transport behaviour).

**Lifecycle hardening.**  Segment names carry a per-process *run nonce*
(``repro<nonce><seq>``), so leaked segments are attributable to the run
that created them.  The first publish registers an ``atexit`` sweeper as a
backstop behind the engine's own ``finally`` cleanup, and
:func:`reap_stale_segments` (called at engine start) unlinks segments left
behind by a *crashed* publisher -- same ``repro`` prefix, different nonce,
older than the reap age.  Attach/publish failures are tallied in a
degraded-mode counter (:func:`degraded_count`) so chaos tests and
``--cache-stats`` can observe how often the transport fell back to
recompute-from-spec.
"""

from __future__ import annotations

import atexit
import os
import re
import time
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro import obs
from repro.experiments import faults
from repro.synthesis.aig import Aig, _Node
from repro.synthesis.aig_array import AigArrays, arrays_from_parts
from repro.synthesis.cuts import CutSet
from repro.synthesis.matcher import CutFunctionTable, cut_function_table

#: Byte alignment of every array inside a segment (covers all shipped dtypes).
_ALIGN = 16

#: Run nonce baked into every segment name created by this process.  Forked
#: pool workers inherit it (same run); a fresh interpreter gets a new one.
_RUN_NONCE = uuid.uuid4().hex[:8]

#: Segment names: ``repro`` + 8 hex nonce chars + 4 hex sequence chars.
#: Short enough for the most restrictive POSIX shm name limits.
_NAME_PATTERN = re.compile(r"^repro[0-9a-f]{8}[0-9a-f]{4}$")

#: Where POSIX shared memory is visible as files (Linux); reaping is a
#: graceful no-op elsewhere.
_SHM_DIR = Path("/dev/shm")

#: Default age (seconds) past which a foreign-nonce segment is considered
#: leaked by a crashed run; override with ``REPRO_SHM_REAP_AGE``.
_DEFAULT_REAP_AGE = 900.0

_SEQUENCE = 0
_ATEXIT_REGISTERED = False

# Degraded-mode tally: publishes/attaches that failed and fell back to the
# recompute-from-spec path.
_DEGRADED = 0


def note_degraded() -> None:
    """Record one transport degradation (failed publish or attach)."""
    global _DEGRADED
    _DEGRADED += 1
    obs.count("shm.degraded")
    obs.event("shm.degraded")


def degraded_count() -> int:
    """Times this process fell back from the shared-memory transport."""
    return _DEGRADED


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """A fresh nonce-named segment (retrying the rare name collision)."""
    global _SEQUENCE
    while True:
        _SEQUENCE += 1
        name = f"repro{_RUN_NONCE}{_SEQUENCE & 0xFFFF:04x}"
        try:
            return shared_memory.SharedMemory(create=True, name=name, size=size)
        except FileExistsError:  # pragma: no cover - stale same-name segment
            continue


def _atexit_sweep() -> None:  # pragma: no cover - interpreter teardown
    """Backstop behind the engine's ``finally``: never leak our segments."""
    release_subjects()


def reap_stale_segments(max_age: float | None = None) -> int:
    """Unlink segments leaked by crashed runs; returns the count reaped.

    Only names matching this module's pattern with a *different* run nonce
    are candidates (a live concurrent run's segments are younger than the
    reap age); our own segments are owned by :func:`release_subjects`.
    """
    if max_age is None:
        raw = os.environ.get("REPRO_SHM_REAP_AGE")
        max_age = float(raw) if raw else _DEFAULT_REAP_AGE
    if not _SHM_DIR.is_dir():
        return 0
    reaped = 0
    cutoff = time.time() - max_age
    ours = f"repro{_RUN_NONCE}"
    try:
        entries = list(_SHM_DIR.iterdir())
    except OSError:  # pragma: no cover - /dev/shm unreadable
        return 0
    for entry in entries:
        if not _NAME_PATTERN.match(entry.name) or entry.name.startswith(ours):
            continue
        try:
            if entry.stat().st_mtime > cutoff:
                continue
            entry.unlink()
        except OSError:  # pragma: no cover - raced with another reaper
            continue
        reaped += 1
    if reaped:
        obs.count("shm.reaped", reaped)
    return reaped


@dataclass(frozen=True)
class SubjectHandle:
    """Picklable description of one published subject.

    ``segments`` lists ``(field, dtype, shape, offset)`` for every array in
    the shared segment; everything else is the scalar metadata needed to
    rebuild the ``Aig`` facade (names) and to key the cut memo.
    """

    key: str
    shm_name: str
    aig_name: str
    pi_names: tuple[str, ...]
    po_names: tuple[str, ...]
    max_inputs: int
    cut_limit: int
    segments: tuple[tuple[str, str, tuple[int, ...], int], ...]


# Publisher-side registry: the live segment of each published subject (so it
# can be unlinked) and its handle (so a repeated publish is a lookup).  Lives
# for one batch: the engine's ``finally`` empties it via release_subjects().
_PUBLISHED: dict[str, tuple[shared_memory.SharedMemory, SubjectHandle]] = {}

# Attach-side registry: one attachment per subject key, holding the segment
# open for as long as the rebuilt AIG's views may be alive.  Lives as long as
# the attaching worker (one pool, one batch) or until drop_attachments().
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, Aig]] = {}


#: Segment fields carrying the published match index (the cut set's
#: :class:`~repro.synthesis.matcher.CutFunctionTable` columns), in
#: :class:`CutFunctionTable` field order.
_FUNCTION_TABLE_FIELDS = (
    "inverse",
    "sizes",
    "tables",
    "support",
    "width",
    "positions",
    "reduced",
    "canon",
    "cut_perm",
    "cut_phase",
    "cut_negated",
)


def _subject_arrays(
    arrays: AigArrays, cut_set: CutSet, functions: CutFunctionTable | None = None
) -> list[tuple[str, np.ndarray]]:
    """The shipped buffers, in segment order.

    ``fanout`` / ``is_and`` / ``and_nodes`` / ``level_groups`` are all
    derivable from the fanins and outputs (see
    :func:`repro.synthesis.aig_array.arrays_from_parts`), so only the
    irreducible arrays travel.  The optional match index (one
    ``fn_``-prefixed segment per :class:`CutFunctionTable` column) rides in
    the same segment; the segments tuple is self-describing, so handles with
    and without it coexist.
    """
    payload = [
        ("fanin0", arrays.fanin0),
        ("fanin1", arrays.fanin1),
        ("level", arrays.level),
        ("po_literals", arrays.po_literals),
        ("cut_count", cut_set.count),
        ("cut_leaves", cut_set.leaves),
        ("cut_size", cut_set.size),
        ("cut_table", cut_set.table),
        ("cut_support", cut_set.support),
    ]
    if functions is not None:
        payload.extend(
            (f"fn_{field}", getattr(functions, field))
            for field in _FUNCTION_TABLE_FIELDS
        )
    return payload


def publish_subject(
    key: str, aig: Aig, arrays: AigArrays, cut_set: CutSet
) -> SubjectHandle:
    """Copy a subject's arrays into a shared segment and return its handle.

    Idempotent per ``key`` (the content hash makes equal keys equal
    payloads).  Raises ``OSError`` when shared memory is unavailable;
    callers are expected to fall back to spec-only transport.
    """
    global _ATEXIT_REGISTERED
    existing = _PUBLISHED.get(key)
    if existing is not None:
        return existing[1]

    # Build (or reuse) the subject's match index -- the distinct cut
    # functions with their NPN canonicalization columns -- so workers skip
    # the batched orbit scans entirely and resolve matches straight against
    # their (fork-inherited) matcher indexes.
    functions = cut_function_table(cut_set, arrays.and_nodes)
    payload = _subject_arrays(arrays, cut_set, functions)
    offsets: list[int] = []
    total = 0
    for _field, array in payload:
        total = -(-total // _ALIGN) * _ALIGN
        offsets.append(total)
        total += array.nbytes
    segment = _create_segment(max(total, 1))
    if not _ATEXIT_REGISTERED:
        # Backstop for publishers that die between publish and the engine's
        # ``finally`` cleanup; idempotent with release_subjects().
        atexit.register(_atexit_sweep)
        _ATEXIT_REGISTERED = True
    try:
        segments = []
        for (field, array), offset in zip(payload, offsets):
            flat = np.ascontiguousarray(array)
            view = np.frombuffer(
                segment.buf, dtype=flat.dtype, count=flat.size, offset=offset
            )
            view[:] = flat.reshape(-1)
            segments.append((field, flat.dtype.str, tuple(array.shape), offset))
        handle = SubjectHandle(
            key=key,
            shm_name=segment.name,
            aig_name=aig.name,
            pi_names=aig.pi_names,
            po_names=aig.po_names,
            max_inputs=cut_set.max_inputs,
            cut_limit=cut_set.cut_limit,
            segments=tuple(segments),
        )
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    _PUBLISHED[key] = (segment, handle)
    return handle


def _attach_views(handle: SubjectHandle) -> tuple[shared_memory.SharedMemory, dict]:
    faults.on_shm_attach(handle.key)  # chaos harness: may raise OSError
    segment = shared_memory.SharedMemory(name=handle.shm_name)
    views: dict[str, np.ndarray] = {}
    for field, dtype, shape, offset in handle.segments:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(
            segment.buf, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)
        view.flags.writeable = False
        views[field] = view
    return segment, views


def _rebuild_aig(
    handle: SubjectHandle,
    fanin0: np.ndarray,
    fanin1: np.ndarray,
    level: np.ndarray,
    po_literals: np.ndarray,
) -> Aig:
    """Reconstruct the ``Aig`` facade around the shipped arrays.

    Node ids, fanin literal order (``and_gate`` stores them canonically
    sorted) and levels are taken verbatim, so the rebuilt graph is
    structurally identical to the published one -- same fingerprint, same
    cut sets, same mapping -- without re-running structural hashing.
    """
    aig = Aig(handle.aig_name)
    nodes = aig._nodes
    strash = aig._strash
    f0 = fanin0.tolist()
    f1 = fanin1.tolist()
    levels = level.tolist()
    pi_iterator = iter(handle.pi_names)
    for node in range(1, len(f0)):
        low = f0[node]
        if low < 0:
            nodes.append(_Node(-1, -1, 0))
            aig._pi_names.append(next(pi_iterator))
            aig._pi_nodes.append(node)
        else:
            high = f1[node]
            nodes.append(_Node(low, high, levels[node]))
            strash[(low, high)] = node
    for name, literal in zip(handle.po_names, po_literals.tolist()):
        aig._po_names.append(name)
        aig._po_literals.append(int(literal))
    return aig


def resolve_subject(handle: SubjectHandle) -> Aig:
    """An ``Aig`` (with array view and cut memos installed) for a handle.

    Reuses a previous attachment (:data:`_ATTACHED`), else attaches the
    shared segment.  Raises ``OSError`` when the segment cannot be opened
    (callers fall back to recomputing from the job spec).
    """
    attached = _ATTACHED.get(handle.key)
    if attached is not None:
        return attached[1]

    segment, views = _attach_views(handle)
    aig = _rebuild_aig(
        handle, views["fanin0"], views["fanin1"], views["level"], views["po_literals"]
    )
    arrays = arrays_from_parts(
        views["fanin0"], views["fanin1"], views["level"], views["po_literals"]
    )
    cut_set = CutSet(
        max_inputs=handle.max_inputs,
        cut_limit=handle.cut_limit,
        count=views["cut_count"],
        leaves=views["cut_leaves"],
        size=views["cut_size"],
        table=views["cut_table"],
        support=views["cut_support"],
    )
    if "fn_inverse" in views:
        # Pre-install the shipped match index: zero-copy views over the
        # parent's canonicalization columns, keyed exactly as
        # ``cut_function_table`` would memoize its own (output negation on,
        # the engine's matcher configuration).
        functions = CutFunctionTable(
            **{field: views[f"fn_{field}"] for field in _FUNCTION_TABLE_FIELDS}
        )
        object.__setattr__(cut_set, "_function_tables", {True: functions})
    structure = (aig.num_nodes, aig.num_pos)
    aig.__dict__["_array_view"] = (structure, arrays)
    aig.__dict__["_cut_sets"] = (
        structure,
        {(handle.max_inputs, handle.cut_limit): cut_set},
    )
    _ATTACHED[handle.key] = (segment, aig)
    return aig


def release_subjects() -> None:
    """Publisher-side cleanup: unlink every published segment."""
    for segment, _handle in _PUBLISHED.values():
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
    _PUBLISHED.clear()


#: Segments whose close failed because numpy views were still referenced;
#: retried on the next :func:`drop_attachments` (keeping the object alive
#: avoids the noisy ``BufferError`` from ``SharedMemory.__del__``).
_ZOMBIES: list[shared_memory.SharedMemory] = []


def drop_attachments() -> None:
    """Attach-side cleanup: close every attached segment.

    Pool workers call it at exit (the engine's pool initializer registers
    the finalizer); a process that attaches and lives on -- e.g. a test
    resolving a handle in the publisher -- calls it when done.  The
    registry's AIG references are dropped *before* closing so the
    zero-copy views they pin are freed first; a segment whose views are
    still referenced elsewhere is parked and re-tried on the next call
    rather than leaked or closed out from under a live array.
    """
    pending = _ZOMBIES + [segment for segment, _aig in _ATTACHED.values()]
    _ZOMBIES.clear()
    _ATTACHED.clear()
    for segment in pending:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - external views still alive
            _ZOMBIES.append(segment)
        except OSError:  # pragma: no cover - already gone
            pass


def attachment_count() -> int:
    """Number of live worker-side attachments (cache-bound diagnostics)."""
    return len(_ATTACHED)


def published_count() -> int:
    """Number of live publisher-side segments."""
    return len(_PUBLISHED)
