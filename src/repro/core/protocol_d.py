"""Protocol D (Section 4): time-optimal via parallel work + agreement.

The protocol alternates *work phases* and *agreement phases*.  In a work
phase the outstanding units are split evenly (by rank) among the
processes thought correct; everyone works its share, padding with idle
rounds so all spend ``ceil(|S|/|T|)`` rounds.  The agreement phase is the
early-stopping crash-tolerant exchange of [Dolev-Reischuk-Strong]: each
round every process broadcasts ``(S, T, done)``; units reported done are
intersected away, discovered-correct sets are unioned, silent processes
are removed (after a one-round grace period in phases >= 2, since phases
may start one round apart), and a process decides when its view of the
live set is unchanged across two consecutive rounds - or immediately
adopts the final view of a process that already decided.

If more than half the processes thought correct at the start of a phase
are discovered to have failed (threshold configurable - the paper notes
any factor alpha works, at work cost ``n / (1 - alpha)``), the remaining
processes abandon phasing and finish the outstanding units with
Protocol A among themselves (the reversion path of Theorem 4.1(2)).

Theorem 4.1(1): with ``f`` failures and no reversion, at most ``2n``
work, at most ``(4f + 2) t^2`` messages, and all processes retire by
round ``(f+1) n/t + 4f + 2``.  Failure-free: exactly ``n`` work,
``n/t + 2`` rounds, at most ``2 t^2`` messages.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.protocol_a import ProtocolAProcess
from repro.errors import ConfigurationError
from repro.sim.actions import Action, Broadcast, Envelope, MessageKind, Send
from repro.sim.bitset import FrozenIntBitset, IntBitset
from repro.sim.columnar import (
    KIND_CODES,
    ColumnarInbox,
    bit_test,
    dedup_last_wins,
    int_to_words,
    np,
    or_srcs_mask,
    words_to_int,
)
from repro.sim.process import Process

_WORK = "work"
_AGREE = "agree"
_REVERT = "revert"

#: Agreement payload: (phase index, outstanding units, known-correct, done).
#: The two set components travel as frozen bitset snapshots - freezing is
#: O(1) and the recipient's fold is word-parallel bitwise algebra instead
#: of O(n) element-wise set churn.
AgreePayload = Tuple[int, FrozenIntBitset, FrozenIntBitset, bool]

_INNER_KINDS = (MessageKind.PARTIAL_CHECKPOINT, MessageKind.FULL_CHECKPOINT)


class _AgreeCache:
    """Per-run decoded-payload columns for the columnar agree fold.

    One instance lives on the engine's :class:`ColumnarMailboxes` store
    (shared by all processes of a run), indexed by payload id, so each
    agreement payload is decoded into word rows exactly once - not once
    per recipient.  Non-AGREEMENT payload ids keep the ``-1`` phase
    sentinel (receipt filters compare against ``phase_index >= 1``, so
    they never match).
    """

    __slots__ = ("width_s", "width_t", "filled", "phase", "done", "s_words", "t_words")

    def __init__(self, n: int, t: int):
        # Units are 1..n (bit n set => bit_length n+1); pids are 0..t-1.
        self.width_s = (n + 64) >> 6
        self.width_t = max(1, (t + 63) >> 6)
        self.filled = 0
        capacity = 256
        self.phase = np.full(capacity, -1, dtype=np.int64)
        self.done = np.zeros(capacity, dtype=bool)
        self.s_words = np.zeros((capacity, self.width_s), dtype=np.uint64)
        self.t_words = np.zeros((capacity, self.width_t), dtype=np.uint64)

    def ensure(self, store) -> None:
        """Decode every payload interned since the last call."""
        total = store.payload_count()
        if self.filled >= total:
            return
        if total > len(self.phase):
            capacity = len(self.phase)
            while capacity < total:
                capacity *= 2
            phase = np.full(capacity, -1, dtype=np.int64)
            phase[: self.filled] = self.phase[: self.filled]
            self.phase = phase
            for name, width in (("done", 0), ("s_words", self.width_s),
                                ("t_words", self.width_t)):
                old = getattr(self, name)
                shape = (capacity, width) if width else capacity
                new = np.zeros(shape, dtype=old.dtype)
                new[: self.filled] = old[: self.filled]
                setattr(self, name, new)
        code = KIND_CODES[MessageKind.AGREEMENT]
        bytes_s, bytes_t = self.width_s * 8, self.width_t * 8
        for payload_id in range(self.filled, total):
            if store.payload_kind_code(payload_id) != code:
                continue
            payload = store.payload(payload_id)
            self.phase[payload_id] = payload[0]
            self.done[payload_id] = payload[3]
            self.s_words[payload_id] = np.frombuffer(
                payload[1]._bits.to_bytes(bytes_s, "little"), dtype="<u8"
            )
            self.t_words[payload_id] = np.frombuffer(
                payload[2]._bits.to_bytes(bytes_t, "little"), dtype="<u8"
            )
        self.filled = total


class ProtocolDProcess(Process):
    """One process of Protocol D."""

    reads_columns = True

    def __init__(
        self,
        pid: int,
        t: int,
        n: int,
        *,
        revert_threshold: float = 0.5,
        slack: int = 2,
    ):
        super().__init__(pid, t)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        if not 0.0 < revert_threshold <= 1.0:
            raise ConfigurationError(
                f"revert threshold must be in (0, 1], got {revert_threshold}"
            )
        self.n = n
        self.revert_threshold = revert_threshold
        self.slack = slack
        self.S: IntBitset = IntBitset.from_range(1, n + 1)
        self.T: IntBitset = IntBitset.from_range(0, t)
        self.phase_index = 0
        self.reverted = False
        # Work-phase state.
        self._share: List[int] = []
        self._work_start = 0
        self._work_done_count = 0
        self._agree_entry = 0
        # Agreement-phase state.
        self._U: IntBitset = IntBitset()
        self._u_snapshot: IntBitset = IntBitset()
        self._round_var = 0
        self._agree_done = False
        self._T_prev: IntBitset = self.T.copy()
        self._buffer: List[Envelope] = []
        # Columnar twin of _buffer: (rows, payload_ids) array pairs per
        # drain, kept unmaterialised until the agree fold (only one of
        # the two buffers is ever populated - the engine's store kind is
        # fixed for the whole run).
        self._cbuffer: List = []
        self._cstore = None
        # Reversion state.
        self._inner: Optional[ProtocolAProcess] = None
        self._revert_members: List[int] = []
        self._revert_units: List[int] = []
        self.state = _WORK
        self._setup_work_phase(start_round=0)

    # ---- work phases ------------------------------------------------------

    def _setup_work_phase(self, start_round: int) -> None:
        self.state = _WORK
        self.phase_index += 1
        self._T_prev = self.T.copy()
        team = len(self.T)       # popcount, O(1)
        pool = len(self.S)
        per_process = math.ceil(pool / team) if team else 0
        # Rank and share come straight off the bitsets: count_below is a
        # masked popcount and select() slices exactly this process's
        # ceil(|S|/|T|) units - no O(n) member list per process (the old
        # list(S) cost Theta(n t) across the team every phase).
        if per_process == 0 or self.pid not in self.T:
            # Not thought correct: cannot happen for a live process in
            # the crash model, but stay safe.
            self._share = []
        else:
            rank = self.T.count_below(self.pid)
            self._share = self.S.select(rank * per_process, per_process)
        self._work_start = start_round
        self._work_done_count = 0
        self._agree_entry = start_round + per_process
        # Line 8 of Figure 4: S := S \ S'.  Removing the share up front is
        # equivalent: the share is fully performed before S is next used
        # (at agreement), and a crashed process's S is never consulted.
        self.S.difference_update(self._share)

    # ---- scheduling ----------------------------------------------------------

    # Scheduling contract (see repro.sim.process): the engine caches this
    # value between engine-observed events, which is sound because every
    # field it reads is mutated only inside on_round / the lifecycle hooks.
    def wake_round(self) -> Optional[int]:
        if self.retired:
            return None
        if self.state == _REVERT:
            assert self._inner is not None
            return self._inner.wake_round()
        if self.state == _WORK:
            if self._work_done_count < len(self._share):
                return self._work_start + self._work_done_count
            return self._agree_entry
        return 0  # agreement: act every round

    # ---- round dispatch ---------------------------------------------------------

    def on_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        if self.state == _REVERT:
            return self._revert_round(round_number, inbox)
        if isinstance(inbox, ColumnarInbox):
            # Columnar receipt filter: the same kind + phase guard as
            # below, evaluated against the store's decoded-payload cache
            # (non-AGREEMENT ids carry phase -1) without materialising a
            # single envelope.
            if len(inbox):
                store = inbox.store
                cache = store.cache(
                    "protocol-d", lambda: _AgreeCache(self.n, self.t)
                )
                cache.ensure(store)
                payload_ids = inbox.payload_ids()
                keep = cache.phase[payload_ids] >= self.phase_index
                if keep.any():
                    self._cbuffer.append((inbox.rows[keep], payload_ids[keep]))
                    self._cstore = store
        else:
            self._buffer.extend(
                env
                for env in inbox
                if env.kind is MessageKind.AGREEMENT
                and env.payload[0] >= self.phase_index
            )
        if self.state == _WORK:
            if round_number < self._agree_entry:
                return self._work_round(round_number)
            return self._enter_agree(round_number)
        return self._agree_round(round_number)

    # ---- work rounds ---------------------------------------------------------

    def _work_round(self, round_number: int) -> Action:
        index = round_number - self._work_start
        if index < len(self._share) and index == self._work_done_count:
            self._work_done_count += 1
            return Action(work=self._share[index])
        return Action.idle()  # filler: wait ceil(|S|/|T|) - |S'| rounds

    # ---- agreement rounds -------------------------------------------------------

    def _enter_agree(self, round_number: int) -> Action:
        self.state = _AGREE
        self._U = self.T.copy()
        self.T = IntBitset.singleton(self.pid)
        self._agree_done = False
        self._round_var = 1 if self.phase_index == 1 else 0
        self._u_snapshot = self._U.copy()
        return Action(sends=self._agree_broadcast(done=False))

    def _agree_broadcast(self, done: bool) -> Broadcast:
        payload: AgreePayload = (
            self.phase_index,
            self.S.freeze(),
            self.T.freeze(),
            done,
        )
        # One packed broadcast: Theta(t) recipients share one payload
        # object; the engine never materialises per-copy Send tuples.
        recipients = self._U.copy()
        recipients.discard(self.pid)
        return Broadcast(recipients, payload, MessageKind.AGREEMENT)

    def _agree_round(self, round_number: int) -> Action:
        if self._cbuffer:
            return self._agree_round_fast(round_number)
        received: Dict[int, AgreePayload] = {}
        saw_done = False
        phase = self.phase_index
        for envelope in sorted(self._buffer, key=attrgetter("sent_round")):
            payload = envelope.payload
            if payload[0] != phase:
                continue
            src = envelope.src
            previous = received.get(src)
            if previous is None or payload[3] or not previous[3]:
                received[src] = payload
                saw_done = saw_done or payload[3]
        self._buffer.clear()

        # Lines 8-10: fold in ongoing views (word-parallel bitwise ops).
        # Iterating the received dict instead of the u-snapshot is
        # equivalent - the guard admits exactly the same (pid, payload)
        # pairs, and & / | folds commute - but skips the Theta(t) bitset
        # walk per round.  The fold itself runs on raw backing ints:
        # Theta(t) snapshots are intersected per round, so even the
        # per-operand method dispatch of the bitset classes shows up.
        snapshot_bits = self._u_snapshot.to_int() & ~(1 << self.pid)
        s_bits = self.S.to_int()
        t_bits = self.T.to_int()
        for pid, payload in received.items():
            if not payload[3] and (snapshot_bits >> pid) & 1:
                s_bits &= payload[1]._bits
                t_bits |= payload[2]._bits
        self.S = IntBitset(s_bits)
        self.T = IntBitset(t_bits)
        # Lines 11-14: adopt a decided view outright.
        if saw_done:
            for pid in sorted(received):
                payload = received[pid]
                if payload[3]:
                    self.S = payload[1].thaw()
                    self.T = payload[2].thaw()
                    self._agree_done = True
        # Lines 15-16: silent processes are faulty (after the grace
        # round).  Silent = snapshot minus the heard-from set minus self,
        # removed in one masked update rather than a per-pid loop.
        if self._round_var >= 1:
            heard = IntBitset.from_iterable(received)
            heard.add(self.pid)
            self._U -= self._u_snapshot - heard
        return self._agree_tail(round_number)

    def _agree_round_fast(self, round_number: int) -> Action:
        """The columnar twin of :meth:`_agree_round`'s receive half.

        Operates on the buffered (rows, payload_ids) batches without
        materialising envelopes.  The buffer is already stamp-sorted:
        drains hand out rows in ascending row order, the per-recipient
        cursor is monotonic, and stamps are non-decreasing in row order,
        so the slow path's stable ``sorted`` is the identity here.
        Every rule below is the exact vectorized image of a slow-path
        line; ``tests/test_differential_fuzz.py`` pins the equivalence.
        """
        store = self._cstore
        cache = store.cache("protocol-d", lambda: _AgreeCache(self.n, self.t))
        batches = self._cbuffer
        if len(batches) == 1:
            rows, payload_ids = batches[0]
        else:
            rows = np.concatenate([batch[0] for batch in batches])
            payload_ids = np.concatenate([batch[1] for batch in batches])
        batches.clear()
        # Receipt kept ``phase >= phase_index``; processing uses only the
        # current phase (later-phase strays are dropped with the buffer,
        # exactly like the slow path's ``payload[0] != phase`` skip).
        keep = cache.phase[payload_ids] == self.phase_index
        if not keep.all():
            rows = rows[keep]
            payload_ids = payload_ids[keep]
        if len(rows) == 0:
            return self._agree_tail_empty(round_number)
        srcs = store._src[rows]
        done = cache.done[payload_ids]
        # Per-src dedup: last payload wins, done payloads are never
        # displaced - the slow path's ``previous is None or payload[3]
        # or not previous[3]`` update rule.
        winners = dedup_last_wins(srcs, done)
        w_src = srcs[winners]
        w_done = done[winners]
        w_pid = payload_ids[winners]
        saw_done = bool(done.any())
        # Lines 8-10: fold in ongoing views (word-parallel, batched
        # across all admitted senders via one reduce per component).
        snapshot_bits = self._u_snapshot.to_int() & ~(1 << self.pid)
        snap_words = int_to_words(snapshot_bits, cache.width_t)
        admitted = ~w_done & bit_test(snap_words, w_src).astype(bool)
        if admitted.any():
            admitted_ids = w_pid[admitted]
            s_fold = np.bitwise_and.reduce(cache.s_words[admitted_ids], axis=0)
            t_fold = np.bitwise_or.reduce(cache.t_words[admitted_ids], axis=0)
            self.S = IntBitset(self.S.to_int() & words_to_int(s_fold))
            self.T = IntBitset(self.T.to_int() | words_to_int(t_fold))
        # Lines 11-14: adopt a decided view outright (winners ascend by
        # src, so the highest done src wins - as in the slow loop).
        if saw_done:
            adopted = store.payload(int(w_pid[np.nonzero(w_done)[0][-1]]))
            self.S = adopted[1].thaw()
            self.T = adopted[2].thaw()
            self._agree_done = True
        # Lines 15-16: silent processes are faulty (after the grace round).
        if self._round_var >= 1:
            heard_bits = or_srcs_mask(w_src, cache.width_t) | (1 << self.pid)
            self._U -= IntBitset(self._u_snapshot.to_int() & ~heard_bits)
        return self._agree_tail(round_number)

    def _agree_tail_empty(self, round_number: int) -> Action:
        """Nothing received this round: only the silent-removal and
        decide rules run (the slow path with an empty ``received``)."""
        if self._round_var >= 1:
            self._U -= self._u_snapshot - IntBitset.singleton(self.pid)
        return self._agree_tail(round_number)

    def _agree_tail(self, round_number: int) -> Action:
        # Lines 17-18: decide when the live set is stable.
        if (
            not self._agree_done
            and self._round_var >= 1
            and self._U == self._u_snapshot
        ):
            self._agree_done = True
        self._round_var += 1

        if self._agree_done:
            sends = self._agree_broadcast(done=True)
            return self._finish_phase(round_number, sends)
        self._u_snapshot = self._U.copy()
        return Action(sends=self._agree_broadcast(done=False))

    def _finish_phase(self, round_number: int, sends: Broadcast) -> Action:
        threshold = self.revert_threshold * len(self._T_prev)
        if self.S and len(self.T) < threshold:
            self._enter_revert(round_number + 1)
            return Action(sends=sends)
        if not self.S:
            return Action(sends=sends, halt=True)
        self._setup_work_phase(start_round=round_number + 1)
        return Action(sends=sends)

    # ---- reversion to Protocol A ---------------------------------------------------

    def _enter_revert(self, start_round: int) -> None:
        self.state = _REVERT
        self.reverted = True
        self._revert_members = list(self.T)   # ascending iteration
        self._revert_units = list(self.S)
        rank = self._revert_members.index(self.pid)
        # Extra slack absorbs the <=1 round skew between deciders.
        self._inner = ProtocolAProcess(
            rank,
            len(self._revert_members),
            len(self._revert_units),
            epoch=start_round,
            slack=self.slack + 4,
        )

    def _revert_round(self, round_number: int, inbox: List[Envelope]) -> Action:
        assert self._inner is not None
        rank_of = {pid: rank for rank, pid in enumerate(self._revert_members)}
        translated = [
            Envelope(
                src=rank_of[env.src],
                dst=rank_of[self.pid],
                payload=env.payload,
                kind=env.kind,
                sent_round=env.sent_round,
            )
            for env in inbox
            if env.kind in _INNER_KINDS and env.src in rank_of
        ]
        action = self._inner.on_round(round_number, translated)
        work = (
            self._revert_units[action.work - 1] if action.work is not None else None
        )
        sends = action.sends
        if isinstance(sends, Broadcast):
            # Rank-to-pid translation is monotonic (members ascend), so
            # the remapped broadcast stays packed.
            sends = sends.remap(self._revert_members)
        else:
            sends = [
                Send(self._revert_members[send.dst], send.payload, send.kind)
                for send in sends
            ]
        return Action(work=work, sends=sends, halt=action.halt)


def build_protocol_d(
    n: int,
    t: int,
    *,
    revert_threshold: float = 0.5,
    slack: int = 2,
) -> List[ProtocolDProcess]:
    """Construct the full set of Protocol D processes."""
    return [
        ProtocolDProcess(
            pid, t, n, revert_threshold=revert_threshold, slack=slack
        )
        for pid in range(t)
    ]
