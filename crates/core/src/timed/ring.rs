//! Slotted daisy-chain rings and the flits they carry (paper §3.2).
//!
//! FASDA maps the 3-D cell space onto 1-D rings: the **position ring**
//! moves particle broadcasts clockwise (increasing CBB index), the
//! **force ring** moves accumulated neighbour forces counter-clockwise,
//! and the **motion-update ring** carries migrating particles. Each ring
//! node holds one flit register; flits advance one hop per cycle. A flit
//! that cannot be delivered (full input buffer) simply keeps rotating and
//! retries next lap — the "data pieces spinning in rings" of §5.3.

use crate::geometry::ChipCoord;
use fasda_arith::fixed::FixVec3;
use fasda_md::element::Element;
use fasda_md::space::CellCoord;

/// A position broadcast travelling the position ring.
///
/// Carries the owner identity (chip/CBB/slot — the "header that contains
/// particle identification information" of Fig. 11), the payload, and the
/// remaining destinations as masks. The local mask is over this chip's
/// CBB indices; the remote mask is over the chip's `send_chips()` list
/// and is drained by the EX node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PosFlit {
    /// Home chip of the particle.
    pub owner_chip: ChipCoord,
    /// Home CBB on the owner chip.
    pub owner_cbb: u16,
    /// Slot in the owner cell's phase snapshot.
    pub slot: u16,
    /// Element type.
    pub elem: Element,
    /// Fixed-point offset within the home cell.
    pub offset: FixVec3,
    /// Global coordinates of the home cell (for RCID at delivery).
    pub src_gcell: CellCoord,
    /// Remaining on-chip destination CBBs (bit = CBB index).
    pub local_mask: u64,
    /// Remaining remote destination chips (bit = index into the sending
    /// chip's `send_chips()` list).
    pub remote_mask: u32,
}

impl PosFlit {
    /// True once every destination has been served.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.local_mask == 0 && self.remote_mask == 0
    }
}

/// An accumulated neighbour force returning to its home cell on the
/// force ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrcFlit {
    /// Home chip of the particle the force belongs to.
    pub owner_chip: ChipCoord,
    /// Home CBB on the owner chip.
    pub owner_cbb: u16,
    /// Slot in the owner cell's phase snapshot.
    pub slot: u16,
    /// Accumulated partial force, kcal/mol/cell.
    pub force: [f32; 3],
}

/// A migrating particle on the motion-update ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigFlit {
    /// Destination cell, global coordinates.
    pub dest_gcell: CellCoord,
    /// Stable particle ID.
    pub id: u32,
    /// Element type.
    pub elem: Element,
    /// Offset within the destination cell.
    pub offset: FixVec3,
    /// Velocity, cells/fs.
    pub vel: [f32; 3],
}

/// Ring rotation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Toward increasing node index (position ring, §3.2).
    Clockwise,
    /// Toward decreasing node index (force ring).
    CounterClockwise,
}

/// A slotted ring: one flit register per node, one hop per cycle.
///
/// Rotation moves the *head index*, not the registers: node `i` lives in
/// storage slot `(head + i) mod len`. An occupancy mask (in storage
/// space, so rotation leaves it alone) is maintained by
/// [`Ring::inject`] / [`Ring::take`], which are the only ways a register
/// changes between empty and full — [`Ring::update`] edits a flit in
/// place but cannot remove it. `is_empty`, `occupancy` and `rotate` are
/// O(1), and [`Ring::occupied_nodes`] lets the chip visit occupied nodes
/// only.
///
/// **Stops.** A flit stays in its storage slot while the head turns, so
/// the head value at which it sits at a given node is fixed. A flit that
/// only stops at some nodes ([`Ring::schedule`]) is filed under the head
/// value of its next stop, and [`Ring::due_nodes`] names the nodes whose
/// flit is at a stop now: the chip visits those and no other.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    dir: Direction,
    /// Storage slot of node 0.
    head: usize,
    /// Bit `s` set iff storage slot `s` holds a flit.
    occ: u128,
    /// By head value: the storage slots whose flit is at its next stop
    /// while the head has that value.
    due: Vec<u128>,
    /// By storage slot: the `due` entry it is filed under (`NOT_DUE`).
    when: Vec<u8>,
    /// Flit-hops performed (hardware-utilization numerator).
    pub hops: u64,
}

/// `Ring::when` of a slot without a scheduled stop.
const NOT_DUE: u8 = u8::MAX;

impl<T> Ring<T> {
    /// A ring of `nodes` registers.
    pub fn new(nodes: usize, dir: Direction) -> Self {
        assert!(nodes >= 2, "a ring needs at least 2 nodes");
        assert!(nodes <= 128, "ring occupancy is tracked in a u128 mask");
        Ring {
            slots: (0..nodes).map(|_| None).collect(),
            dir,
            head: 0,
            occ: 0,
            due: vec![0; nodes],
            when: vec![NOT_DUE; nodes],
            hops: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no flits are on the ring.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occ == 0
    }

    /// Occupied slot count.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occ.count_ones() as usize
    }

    /// Storage slot of `node`.
    #[inline]
    fn slot_of(&self, node: usize) -> usize {
        debug_assert!(node < self.slots.len());
        let s = self.head + node;
        if s >= self.slots.len() {
            s - self.slots.len()
        } else {
            s
        }
    }

    /// Bit `i` set iff node `i` holds a flit.
    #[inline]
    pub fn occupied_nodes(&self) -> u128 {
        self.nodes_of(self.occ)
    }

    /// A storage-slot mask as a node mask.
    #[inline]
    fn nodes_of(&self, slots: u128) -> u128 {
        if self.head == 0 {
            return slots;
        }
        let n = self.slots.len() as u32;
        let h = self.head as u32;
        // Node i ↔ slot head + i (mod n): rotate the slot mask down by head.
        (slots >> h) | ((slots << (n - h)) & (u128::MAX >> (128 - n)))
    }

    /// Bit `i` set iff the flit at node `i` is at a stop it was scheduled
    /// for ([`Ring::schedule`]).
    #[inline]
    pub fn due_nodes(&self) -> u128 {
        self.nodes_of(self.due[self.head])
    }

    /// File the flit at `node` under the first node of `stops` it reaches
    /// after this one — `node` itself a full lap on, if it is the only
    /// stop — replacing any earlier schedule; `stops == 0` clears it.
    pub fn schedule(&mut self, node: usize, stops: u128) {
        let n = self.slots.len();
        debug_assert!(stops >> n == 0, "a stop past the last node");
        let s = self.slot_of(node);
        debug_assert!(self.slots[s].is_some(), "scheduling an empty register");
        self.unschedule(s);
        if stops == 0 {
            return;
        }
        let below = |k: usize| if k >= 128 { u128::MAX } else { (1u128 << k) - 1 };
        let stop = match self.dir {
            Direction::Clockwise => {
                let after = stops & !below(node + 1);
                (if after != 0 { after } else { stops }).trailing_zeros() as usize
            }
            Direction::CounterClockwise => {
                let before = stops & below(node);
                127 - (if before != 0 { before } else { stops }).leading_zeros() as usize
            }
        };
        // Slot s is at node `stop` when (head + stop) mod n == s.
        let h = (s + n - stop) % n;
        self.due[h] |= 1u128 << s;
        self.when[s] = h as u8;
    }

    /// Drop storage slot `s`'s schedule, if any.
    #[inline]
    fn unschedule(&mut self, s: usize) {
        let h = self.when[s];
        if h != NOT_DUE {
            self.due[h as usize] &= !(1u128 << s);
            self.when[s] = NOT_DUE;
        }
    }

    /// Advance every flit one hop.
    #[inline]
    pub fn rotate(&mut self) {
        self.hops += self.occupancy() as u64;
        let n = self.slots.len();
        // A flit at node i must next be read at node i ± 1.
        self.head = match self.dir {
            Direction::Clockwise => if self.head == 0 { n - 1 } else { self.head - 1 },
            Direction::CounterClockwise => if self.head + 1 == n { 0 } else { self.head + 1 },
        };
    }

    /// The flit currently at `node`, if any.
    #[inline]
    pub fn at(&self, node: usize) -> Option<&T> {
        self.slots[self.slot_of(node)].as_ref()
    }

    /// Edit the flit at `node` in place and return it; the register stays
    /// occupied (use [`Ring::take`] to remove a flit).
    #[inline]
    pub fn update(&mut self, node: usize, edit: impl FnOnce(&mut T)) -> Option<&T> {
        let s = self.slot_of(node);
        let flit = self.slots[s].as_mut()?;
        edit(flit);
        Some(flit)
    }

    /// Remove and return the flit at `node` (and its schedule).
    #[inline]
    pub fn take(&mut self, node: usize) -> Option<T> {
        let s = self.slot_of(node);
        let flit = self.slots[s].take()?;
        self.occ &= !(1u128 << s);
        self.unschedule(s);
        Some(flit)
    }

    /// Inject a flit at `node` if the register is empty.
    #[inline]
    pub fn inject(&mut self, node: usize, flit: T) -> Result<(), T> {
        let s = self.slot_of(node);
        if self.slots[s].is_some() {
            return Err(flit);
        }
        self.slots[s] = Some(flit);
        self.occ |= 1u128 << s;
        Ok(())
    }
}

fasda_ckpt::persist_struct!(PosFlit {
    owner_chip,
    owner_cbb,
    slot,
    elem,
    offset,
    src_gcell,
    local_mask,
    remote_mask,
});

fasda_ckpt::persist_struct!(FrcFlit { owner_chip, owner_cbb, slot, force });

fasda_ckpt::persist_struct!(MigFlit { dest_gcell, id, elem, offset, vel });

/// Checkpointing: node count and direction are configuration; the flit
/// registers and the hop counter are state. Registers are written in
/// logical node order — the byte layout of the register file the ring
/// used to rotate physically — so the head index is not state: a restored
/// ring starts with node 0 in slot 0. Schedules are not state either: the
/// owner re-files every restored flit ([`Ring::schedule`]).
impl<T: fasda_ckpt::Persist> fasda_ckpt::Snapshot for Ring<T> {
    fn snapshot(&self, w: &mut fasda_ckpt::Writer) {
        use fasda_ckpt::Persist;
        w.put_usize(self.slots.len());
        for node in 0..self.slots.len() {
            self.slots[self.slot_of(node)].save(w);
        }
        w.put_u64(self.hops);
    }
    fn restore(&mut self, r: &mut fasda_ckpt::Reader<'_>) -> Result<(), fasda_ckpt::CkptError> {
        let slots: Vec<Option<T>> = fasda_ckpt::Persist::load(r)?;
        if slots.len() != self.slots.len() {
            return Err(r.malformed(format!(
                "ring size mismatch: snapshot has {} nodes, ring has {}",
                slots.len(),
                self.slots.len()
            )));
        }
        self.head = 0;
        self.due.fill(0);
        self.when.fill(NOT_DUE);
        self.occ = slots
            .iter()
            .enumerate()
            .fold(0, |m, (i, s)| m | u128::from(s.is_some()) << i);
        self.slots = slots;
        self.hops = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clockwise_moves_to_higher_index() {
        let mut r: Ring<u32> = Ring::new(4, Direction::Clockwise);
        r.inject(0, 7).unwrap();
        r.rotate();
        assert_eq!(r.at(1), Some(&7));
        r.rotate();
        assert_eq!(r.at(2), Some(&7));
        // wraps
        r.rotate();
        r.rotate();
        assert_eq!(r.at(0), Some(&7));
        assert_eq!(r.hops, 4);
    }

    #[test]
    fn counterclockwise_moves_to_lower_index() {
        let mut r: Ring<u32> = Ring::new(4, Direction::CounterClockwise);
        r.inject(1, 9).unwrap();
        r.rotate();
        assert_eq!(r.at(0), Some(&9));
        r.rotate();
        assert_eq!(r.at(3), Some(&9), "wraps downward");
    }

    #[test]
    fn inject_requires_empty_slot() {
        let mut r: Ring<u32> = Ring::new(3, Direction::Clockwise);
        r.inject(2, 1).unwrap();
        assert_eq!(r.inject(2, 2), Err(2));
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.take(2), Some(1));
        assert!(r.is_empty());
    }

    #[test]
    fn multiple_flits_keep_relative_order() {
        let mut r: Ring<u32> = Ring::new(4, Direction::Clockwise);
        r.inject(0, 0).unwrap();
        r.inject(1, 1).unwrap();
        r.rotate();
        assert_eq!(r.at(1), Some(&0));
        assert_eq!(r.at(2), Some(&1));
        assert_eq!(r.occupancy(), 2);
    }

    mod stops {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Flits filed under their stops are due at exactly the nodes
            /// of their stop masks as the ring turns, in both directions:
            /// a flit served at a stop drops it (and leaves the ring with
            /// its last), one that is refused keeps it for the next lap.
            #[test]
            fn flits_are_due_exactly_at_their_stops(
                nodes in 2usize..70,
                clockwise in 0u32..2,
                seed in 1u64..u64::MAX,
            ) {
                let dir = if clockwise == 1 { Direction::Clockwise } else { Direction::CounterClockwise };
                let mut ring: Ring<u128> = Ring::new(nodes, dir);
                let mut state = seed;
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let all = u128::MAX >> (128 - nodes);
                for _ in 0..1 + next() % 6 {
                    let node = (next() % nodes as u64) as usize;
                    let stops = (u128::from(next()) << 64 | u128::from(next())) & all & (u128::from(next()) | u128::from(next()) << 64);
                    if stops != 0 && ring.inject(node, stops).is_ok() {
                        ring.schedule(node, stops);
                    }
                }
                for _ in 0..3 * nodes {
                    ring.rotate();
                    let due = ring.due_nodes();
                    let mut want = 0u128;
                    for n in 0..nodes {
                        if ring.at(n).is_some_and(|stops| stops >> n & 1 != 0) {
                            want |= 1 << n;
                        }
                    }
                    prop_assert_eq!(due, want);
                    for n in (0..nodes).filter(|n| due >> n & 1 != 0) {
                        if next() % 3 == 0 {
                            let stops = *ring.at(n).unwrap();
                            ring.schedule(n, stops); // refused: next lap
                        } else {
                            let stops = *ring.update(n, |s| *s &= !(1 << n)).unwrap();
                            if stops == 0 {
                                ring.take(n);
                            } else {
                                ring.schedule(n, stops);
                            }
                        }
                    }
                }
            }
        }
    }

    mod head_index {
        use super::*;
        use proptest::prelude::*;

        /// The register file rotated physically, as the ring used to.
        struct Reference {
            slots: Vec<Option<u32>>,
            dir: Direction,
        }

        impl Reference {
            fn rotate(&mut self) {
                match self.dir {
                    Direction::Clockwise => self.slots.rotate_right(1),
                    Direction::CounterClockwise => self.slots.rotate_left(1),
                }
            }
        }

        proptest! {
            /// A head-indexed ring and a `rotate_right` reference agree on
            /// every node, the occupancy mask, count and hop total after
            /// random inject / take / update / rotate sequences, in both
            /// directions, and the snapshot bytes are the reference's
            /// register file in node order.
            #[test]
            fn agrees_with_physical_rotation(
                nodes in 2usize..70,
                clockwise in 0u32..2,
                ops in proptest::collection::vec((0u32..4, 0usize..70, 0u32..1000), 1..200),
            ) {
                let dir = if clockwise == 1 { Direction::Clockwise } else { Direction::CounterClockwise };
                let mut ring: Ring<u32> = Ring::new(nodes, dir);
                let mut reference = Reference { slots: vec![None; nodes], dir };
                let mut hops = 0u64;
                for (op, node, val) in ops {
                    let node = node * nodes / 70; // scale the draw onto this ring
                    match op {
                        0 => {
                            let want = match reference.slots[node] {
                                Some(_) => Err(val),
                                None => {
                                    reference.slots[node] = Some(val);
                                    Ok(())
                                }
                            };
                            prop_assert_eq!(ring.inject(node, val), want);
                        }
                        1 => prop_assert_eq!(ring.take(node), reference.slots[node].take()),
                        2 => {
                            if let Some(v) = reference.slots[node].as_mut() {
                                *v += 1;
                            }
                            prop_assert_eq!(ring.update(node, |v| *v += 1).copied(), reference.slots[node]);
                        }
                        _ => {
                            hops += reference.slots.iter().flatten().count() as u64;
                            reference.rotate();
                            ring.rotate();
                        }
                    }
                    let mut mask = 0u128;
                    for i in 0..nodes {
                        prop_assert_eq!(ring.at(i), reference.slots[i].as_ref(), "node {}", i);
                        mask |= u128::from(reference.slots[i].is_some()) << i;
                    }
                    prop_assert_eq!(ring.occupied_nodes(), mask);
                    prop_assert_eq!(ring.occupancy(), mask.count_ones() as usize);
                    prop_assert_eq!(ring.is_empty(), mask == 0);
                    prop_assert_eq!(ring.hops, hops);
                }
                use fasda_ckpt::{Persist, Snapshot};
                let mut got = fasda_ckpt::Writer::new();
                ring.snapshot(&mut got);
                let mut want = fasda_ckpt::Writer::new();
                reference.slots.save(&mut want);
                want.put_u64(hops);
                let bytes = got.into_bytes();
                prop_assert_eq!(&bytes, &want.into_bytes());
                let mut back: Ring<u32> = Ring::new(nodes, dir);
                back.restore(&mut fasda_ckpt::Reader::new(&bytes, "ring")).unwrap();
                for i in 0..nodes {
                    prop_assert_eq!(back.at(i), reference.slots[i].as_ref());
                }
                prop_assert_eq!(back.occupied_nodes(), ring.occupied_nodes());
            }
        }
    }
}
