//! Compact issue queue for the compiled backend ([`crate::plan`]).
//!
//! Semantically a twin of [`crate::issue_queue::IssueQueue`] — which remains
//! the interpreted backend's queue and the differential oracle — but laid
//! out for replay speed:
//!
//! * **Struct-of-arrays slots.** Ids, FU classes and operand state live in
//!   parallel flat arrays instead of `Vec<Option<IqEntry>>`; occupancy is a
//!   bitmask, so the head-advance walk of `remove` becomes a word-wise
//!   next-set-bit scan.
//! * **Packed waiters.** The consumer index stores `slot << 1 | operand` as
//!   a `u32` and is pre-sized to the physical-register universe, removing
//!   the grow-check from the dispatch path. Operand readiness is a two-bit
//!   mask per slot (an entry is ready exactly when its mask is zero).
//! * **Pay-for-what-the-policy-observes.** Age ranks come straight off the
//!   occupancy bitmask (a popcount over `[head, slot)`), and `head` — their
//!   only consumer — is only maintained when `track_age` is set, because
//!   only the adaptive policy reads ranks. Region accounting
//!   (`new_head` / `region_count`) only becomes observable once a hint has
//!   set `max_new_range`, so it is maintained only from the first
//!   [`PlanQueue::apply_hint`] on (the hint resets the window, which is
//!   what makes the late start exact, not approximate).
//!
//! Every counter the statistics depend on — occupancy, powered banks,
//! waiting-operand totals (the gated-comparison cost), region occupancy —
//! follows the oracle's update rules verbatim; the cross-backend
//! differential tests in [`crate::plan`] and the proptests pin the
//! equivalence down.

/// A resident entry that became fully ready during a
/// [`PlanQueue::wakeup`] broadcast (or was ready on dispatch).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadyCandidate {
    /// In-flight id of the entry.
    pub id: u64,
    /// Slot the entry occupies.
    pub slot: u32,
    /// Trace index of the instruction — issue streams the static side
    /// (FU class, flags, latency) from the plan record it names.
    pub trace_idx: u32,
}

/// The compiled backend's issue queue. See the module docs.
#[derive(Debug)]
pub(crate) struct PlanQueue {
    capacity: usize,
    bank_size: usize,
    /// Slot occupancy bitmask: slot `s` is resident iff
    /// `occ[s / 64] >> (s % 64) & 1 == 1`.
    occ: Vec<u64>,
    /// In-flight id per slot.
    ids: Vec<u64>,
    /// Trace index per slot (carried so issue never re-derives it from
    /// the ROB).
    tidx: Vec<u32>,
    /// Dense register each operand waits on (meaningful while the
    /// operand's `wait_bits` bit is set).
    op_reg: Vec<[u16; 2]>,
    /// Bits 0/1: operand still waiting for its value. Zero = entry ready.
    wait_bits: Vec<u8>,
    head: usize,
    tail: usize,
    new_head: usize,
    count: usize,
    /// Software region limit; `None` until the first hint (region state is
    /// not maintained before then — the hint resets it).
    max_new_range: Option<usize>,
    /// Hardware resident limit (adaptive policy); `None` = full capacity.
    hard_limit: Option<usize>,
    bank_occupancy: Vec<u32>,
    banks_nonempty: usize,
    /// Filled slots in the circular window `[new_head, tail)`.
    region_count: usize,
    /// Waiting (not-yet-ready) operands across all residents — the gated
    /// wakeup-comparison count of one broadcast.
    waiting_total: u64,
    /// Consumer index: dense register -> packed `slot << 1 | operand`.
    waiters: Vec<Vec<u32>>,
    /// Maintain `head` (the oldest resident) so [`PlanQueue::age_rank`]
    /// can answer; only the adaptive policy observes it.
    track_age: bool,
}

impl PlanQueue {
    /// Creates an empty queue. `dense_regs` is the size of the dense
    /// physical-register universe the consumer index must cover;
    /// `track_age` maintains the queue head that [`PlanQueue::age_rank`]
    /// counts from (ranks are a popcount over the occupancy bitmask).
    pub(crate) fn new(
        capacity: usize,
        bank_size: usize,
        dense_regs: usize,
        track_age: bool,
    ) -> Self {
        let banks = capacity.div_ceil(bank_size.max(1));
        PlanQueue {
            capacity,
            bank_size: bank_size.max(1),
            occ: vec![0; capacity.div_ceil(64)],
            ids: vec![0; capacity],
            tidx: vec![0; capacity],
            op_reg: vec![[0; 2]; capacity],
            wait_bits: vec![0; capacity],
            head: 0,
            tail: 0,
            new_head: 0,
            count: 0,
            max_new_range: None,
            hard_limit: None,
            bank_occupancy: vec![0; banks],
            banks_nonempty: 0,
            region_count: 0,
            waiting_total: 0,
            waiters: vec![Vec::new(); dense_regs],
            track_age,
        }
    }

    /// Total capacity in entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident instructions.
    pub(crate) fn occupancy(&self) -> usize {
        self.count
    }

    /// Number of banks holding at least one resident instruction. O(1).
    pub(crate) fn banks_on(&self) -> usize {
        self.banks_nonempty
    }

    /// Current software limit, if any.
    pub(crate) fn max_new_range(&self) -> Option<usize> {
        self.max_new_range
    }

    /// Current hardware limit, if any.
    pub(crate) fn hard_limit(&self) -> Option<usize> {
        self.hard_limit
    }

    /// Sets (or clears) the hardware resident-entry limit.
    pub(crate) fn set_hard_limit(&mut self, limit: Option<usize>) {
        self.hard_limit = limit.map(|l| l.clamp(1, self.capacity));
    }

    /// Applies a compiler hint: a new region starts at the current tail.
    pub(crate) fn apply_hint(&mut self, max_new_range: usize) {
        self.new_head = self.tail;
        self.region_count = 0;
        self.max_new_range = Some(max_new_range.max(1));
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occ[slot / 64] >> (slot % 64) & 1 == 1
    }

    #[inline]
    fn next_slot(&self, slot: usize) -> usize {
        let next = slot + 1;
        if next == self.capacity {
            0
        } else {
            next
        }
    }

    #[inline]
    fn circular_distance(&self, from: usize, to: usize) -> usize {
        let diff = to + self.capacity - from;
        if diff >= self.capacity {
            diff - self.capacity
        } else {
            diff
        }
    }

    /// `true` if `slot` lies in the circular window `[new_head, tail)`.
    fn in_region(&self, slot: usize) -> bool {
        self.circular_distance(self.new_head, slot)
            < self.circular_distance(self.new_head, self.tail)
    }

    /// First occupied slot at or cyclically after `start` (the queue must
    /// be non-empty). Word-wise bitmask scan.
    fn next_occupied_from(&self, start: usize) -> usize {
        debug_assert!(self.count > 0);
        let words = self.occ.len();
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        for _ in 0..=words {
            let bits = self.occ[word] & mask;
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word += 1;
            if word == words {
                word = 0;
            }
            mask = !0;
        }
        unreachable!("count > 0 implies an occupied slot")
    }

    /// Set occupancy bits in the linear slot range `[from, to)`.
    fn occupied_in_range(&self, from: usize, to: usize) -> usize {
        if from >= to {
            return 0;
        }
        let first = from / 64;
        let last = (to - 1) / 64;
        let lo_mask = !0u64 << (from % 64);
        let hi_mask = !0u64 >> (63 - (to - 1) % 64);
        if first == last {
            return (self.occ[first] & lo_mask & hi_mask).count_ones() as usize;
        }
        let mut total = (self.occ[first] & lo_mask).count_ones();
        for word in &self.occ[first + 1..last] {
            total += word.count_ones();
        }
        total += (self.occ[last] & hi_mask).count_ones();
        total as usize
    }

    /// Number of resident entries older than the one in `slot` — the
    /// occupied count of the circular range `[head, slot)`, straight off
    /// the occupancy bitmask. Only valid when the queue was created with
    /// `track_age` (otherwise `head` is not maintained).
    pub(crate) fn age_rank(&self, slot: usize) -> usize {
        debug_assert!(self.track_age);
        if slot >= self.head {
            self.occupied_in_range(self.head, slot)
        } else {
            self.occupied_in_range(self.head, self.capacity) + self.occupied_in_range(0, slot)
        }
    }

    /// `true` if another instruction may dispatch right now (physical
    /// capacity, software region limit, hardware limit). O(1).
    pub(crate) fn can_dispatch(&self) -> bool {
        if self.count >= self.capacity || self.is_occupied(self.tail) {
            return false;
        }
        if let Some(limit) = self.hard_limit {
            if self.count >= limit {
                return false;
            }
        }
        if let Some(range) = self.max_new_range {
            if self.region_count >= range {
                return false;
            }
        }
        true
    }

    /// Dispatches at the tail. `ops` holds the dense source registers and
    /// `wait` the operand bits that are present but not yet ready (the
    /// caller renames, so it knows both). Returns `(slot, ready_now)`; the
    /// caller must have checked [`PlanQueue::can_dispatch`].
    pub(crate) fn dispatch(
        &mut self,
        id: u64,
        trace_idx: u32,
        ops: [u16; 2],
        wait: u8,
    ) -> (usize, bool) {
        debug_assert!(self.can_dispatch());
        let slot = self.tail;
        let mut pending = wait;
        while pending != 0 {
            let operand = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let dense = ops[operand];
            self.waiters[dense as usize].push(((slot as u32) << 1) | operand as u32);
            self.waiting_total += 1;
            self.op_reg[slot][operand] = dense;
        }
        self.wait_bits[slot] = wait;
        self.ids[slot] = id;
        self.tidx[slot] = trace_idx;
        self.occ[slot / 64] |= 1 << (slot % 64);
        let bank = slot / self.bank_size;
        self.bank_occupancy[bank] += 1;
        if self.bank_occupancy[bank] == 1 {
            self.banks_nonempty += 1;
        }
        self.tail = self.next_slot(self.tail);
        self.count += 1;
        if self.max_new_range.is_some() {
            // The new resident joins the region window unless the tail
            // wrapped onto `new_head`, which collapses the window.
            if self.tail == self.new_head {
                self.region_count = 0;
            } else {
                self.region_count += 1;
            }
        }
        (slot, wait == 0)
    }

    /// Removes the entry in `slot` (it issued).
    pub(crate) fn remove(&mut self, slot: usize) {
        debug_assert!(self.is_occupied(slot));
        let wait = self.wait_bits[slot];
        if wait != 0 {
            // Drop the entry's still-waiting operands from the consumer
            // index.
            for operand in 0..2 {
                if wait & (1 << operand) != 0 {
                    let packed = ((slot as u32) << 1) | operand as u32;
                    let list = &mut self.waiters[self.op_reg[slot][operand] as usize];
                    let position = list
                        .iter()
                        .position(|&w| w == packed)
                        .expect("waiting operand is indexed");
                    list.swap_remove(position);
                    self.waiting_total -= 1;
                }
            }
            self.wait_bits[slot] = 0;
        }
        if self.max_new_range.is_some() && self.in_region(slot) {
            self.region_count -= 1;
        }
        self.occ[slot / 64] &= !(1 << (slot % 64));
        let bank = slot / self.bank_size;
        self.bank_occupancy[bank] -= 1;
        if self.bank_occupancy[bank] == 0 {
            self.banks_nonempty -= 1;
        }
        self.count -= 1;
        if self.count == 0 {
            self.head = self.tail;
            self.new_head = self.tail;
            self.region_count = 0;
            return;
        }
        if self.track_age {
            // Advance head to the oldest resident (age_rank is relative to
            // it). Nothing else observes `head`, so the non-adaptive
            // policies skip the scan entirely.
            self.head = self.next_occupied_from(self.head);
        }
        if self.max_new_range.is_some() {
            while self.new_head != self.tail && !self.is_occupied(self.new_head) {
                self.new_head = self.next_slot(self.new_head);
            }
        }
    }

    /// Broadcasts a completed dense register, waking exactly the waiting
    /// operands (consumer index). Entries that became fully ready are
    /// pushed onto `ready_out`. Returns the broadcast's
    /// `(non-empty, gated)` comparison counts — the full-queue count is a
    /// static total the plan bakes.
    pub(crate) fn wakeup(&mut self, dense: u16, ready_out: &mut Vec<ReadyCandidate>) -> (u64, u64) {
        let non_empty = 2 * self.count as u64;
        let gated = self.waiting_total;
        if self.waiters[dense as usize].is_empty() {
            return (non_empty, gated);
        }
        // Take the list out to release the borrow; put it back (cleared,
        // capacity retained) afterwards.
        let mut woken = std::mem::take(&mut self.waiters[dense as usize]);
        for &packed in &woken {
            let slot = (packed >> 1) as usize;
            let operand = packed & 1;
            debug_assert!(self.wait_bits[slot] & (1 << operand) != 0);
            self.wait_bits[slot] &= !(1 << operand) as u8;
            self.waiting_total -= 1;
            if self.wait_bits[slot] == 0 {
                ready_out.push(ReadyCandidate {
                    id: self.ids[slot],
                    slot: slot as u32,
                    trace_idx: self.tidx[slot],
                });
            }
        }
        woken.clear();
        self.waiters[dense as usize] = woken;
        (non_empty, gated)
    }
}
