//! Hash-range arithmetic on the 2³² hash lattice.
//!
//! The optimization output assigns each node a share of every coordination
//! unit's hash space (Fig. 2 of the paper); a node analyzes a packet iff
//! the packet's 32-bit keyed hash falls inside its range (Fig. 3 line 5).
//! The hash space is therefore the lattice of the 2³² hash values, and a
//! range is a set of lattice points: segment endpoints are integers in
//! `0..=2³²` ([`HASH_SPACE`]), membership compares the raw `u32` hash, and
//! a range's measure (the fraction of traffic it selects) is its point
//! count ÷ 2³². With the redundancy-`r` extension (§2.5) the covered space
//! is `[0, r·2³²)` and a node's range *wraps around* the lattice, so a
//! node's assignment is in general a set of disjoint half-open segments —
//! a [`RangeSet`].

/// Number of points on the hash lattice: one per 32-bit hash value.
pub const HASH_SPACE: u64 = 1 << 32;

/// The half-open lattice interval `[lo, hi)`, with `lo <= hi <= 2³²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub lo: u64,
    pub hi: u64,
}

impl Segment {
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi && hi <= HASH_SPACE, "segment [{lo}, {hi}) off the hash lattice");
        Segment { lo, hi }
    }

    /// Number of lattice points in the segment.
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// The segment's share of the hash space: its point count ÷ 2³².
    pub fn measure(&self) -> f64 {
        self.len() as f64 / HASH_SPACE as f64
    }

    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    pub fn contains(&self, h: u32) -> bool {
        self.lo <= u64::from(h) && u64::from(h) < self.hi
    }
}

/// A set of disjoint, sorted half-open segments of the hash lattice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeSet {
    segments: Vec<Segment>,
}

impl RangeSet {
    /// The empty range set (node analyzes nothing).
    pub fn empty() -> Self {
        RangeSet { segments: Vec::new() }
    }

    /// A single contiguous range `[lo, hi)` with `lo <= hi <= 2³²`.
    pub fn interval(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi && hi <= HASH_SPACE, "interval [{lo}, {hi}) off the hash lattice");
        if hi == lo {
            return Self::empty();
        }
        RangeSet { segments: vec![Segment::new(lo, hi)] }
    }

    /// A range on the *extended* space `[0, r·2³²)` used by the redundancy
    /// extension: the extended range `[lo, hi)` (at most 2³² points) is
    /// wrapped modulo 2³² into up to two lattice segments.
    ///
    /// Example: with `S = 2³²`, `wrapped(S - 5, S + 3)` covers
    /// `[S - 5, S) ∪ [0, 3)`.
    pub fn wrapped(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "wrapped range bounds out of order");
        assert!(hi - lo <= HASH_SPACE, "wrapped range longer than the hash lattice");
        let start = lo % HASH_SPACE;
        let end = start + (hi - lo);
        if end <= HASH_SPACE {
            Self::interval(start, end)
        } else {
            let second = Segment::new(0, end - HASH_SPACE);
            RangeSet { segments: vec![second, Segment::new(start, HASH_SPACE)] }
        }
    }

    /// Merge another range set into this one. Panics (debug) if the sets
    /// overlap, since manifests must assign disjoint responsibilities.
    pub fn union(mut self, other: &RangeSet) -> Self {
        self.segments.extend(other.segments.iter().copied());
        self.segments.sort_by_key(|s| s.lo);
        for w in self.segments.windows(2) {
            debug_assert!(
                w[0].hi <= w[1].lo,
                "overlapping segments in range set: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        self
    }

    /// Build a set from arbitrary segments: empties dropped, the rest
    /// sorted and coalesced where they abut. Panics (debug) when two
    /// inputs overlap.
    pub fn from_segments(mut segments: Vec<Segment>) -> Self {
        segments.retain(|s| !s.is_empty());
        segments.sort_by_key(|s| s.lo);
        let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
        for s in segments {
            match out.last_mut() {
                Some(prev) if s.lo <= prev.hi => {
                    debug_assert!(s.lo == prev.hi, "overlapping segments: {prev:?} and {s:?}");
                    prev.hi = prev.hi.max(s.hi);
                }
                _ => out.push(s),
            }
        }
        RangeSet { segments: out }
    }

    /// The prefix of this set (in lattice order) holding `keep` points, or
    /// the whole set when it holds fewer. Used by graceful degradation to
    /// shed whole lattice intervals: the remainder is the shed part.
    pub fn take_points(&self, keep: u64) -> RangeSet {
        let mut left = keep;
        let mut segments = Vec::with_capacity(self.segments.len());
        for s in &self.segments {
            if left == 0 {
                break;
            }
            let take = s.len().min(left);
            segments.push(Segment::new(s.lo, s.lo + take));
            left -= take;
        }
        RangeSet { segments }
    }

    /// Does the hash value `h` fall inside this set?
    pub fn contains(&self, h: u32) -> bool {
        // Few segments (1-2 in practice): linear scan beats binary search.
        self.segments.iter().any(|s| s.contains(h))
    }

    /// Number of lattice points in the set.
    pub fn points(&self) -> u64 {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Total measure of the set (the fraction of traffic this node
    /// handles): its point count ÷ 2³², exact in `f64`.
    pub fn measure(&self) -> f64 {
        self.points() as f64 / HASH_SPACE as f64
    }

    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(Segment::is_empty)
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = HASH_SPACE;

    #[test]
    fn interval_contains_endpoints_half_open() {
        let r = RangeSet::interval(S / 4, S / 2);
        assert!(!r.contains((S / 4 - 1) as u32));
        assert!(r.contains((S / 4) as u32));
        assert!(r.contains((S / 2 - 1) as u32));
        assert!(!r.contains((S / 2) as u32));
    }

    #[test]
    fn empty_interval_is_empty() {
        assert!(RangeSet::interval(7, 7).is_empty());
        assert!(!RangeSet::interval(7, 7).contains(7));
    }

    #[test]
    fn wrapped_splits_across_unit_boundary() {
        let r = RangeSet::wrapped(S - 5, S + 3);
        assert!(r.contains(u32::MAX));
        assert!(r.contains((S - 5) as u32));
        assert!(!r.contains((S - 6) as u32));
        assert!(r.contains(0));
        assert!(r.contains(2));
        assert!(!r.contains(3));
        assert_eq!(r.points(), 8);
        assert_eq!(r.segments(), [Segment::new(0, 3), Segment::new(S - 5, S)]);
    }

    #[test]
    fn wrapped_without_crossing_equals_interval() {
        assert_eq!(RangeSet::wrapped(S + 10, S + 20), RangeSet::interval(10, 20));
        // Ending exactly on a lattice multiple does not wrap.
        assert_eq!(RangeSet::wrapped(S / 2, S), RangeSet::interval(S / 2, S));
        assert_eq!(RangeSet::wrapped(S + S / 2, 2 * S), RangeSet::interval(S / 2, S));
    }

    #[test]
    fn union_of_disjoint_sets() {
        let r = RangeSet::interval(0, 20).union(&RangeSet::interval(50, 70));
        assert!(r.contains(10));
        assert!(!r.contains(30));
        assert!(r.contains(60));
        assert_eq!(r.points(), 40);
    }

    #[test]
    fn measure_counts_lattice_points() {
        assert_eq!(RangeSet::interval(0, S).measure(), 1.0);
        assert_eq!(RangeSet::interval(0, S / 2).measure(), 0.5);
        assert_eq!(RangeSet::interval(0, 1).measure(), 1.0 / S as f64);
        assert!(
            RangeSet::interval(0, S).contains(0) && RangeSet::interval(0, S).contains(u32::MAX)
        );
    }

    #[test]
    fn full_wrap_covers_everything() {
        let r = RangeSet::wrapped(S / 3, S / 3 + S);
        assert_eq!(r.points(), S);
        for h in [0, 1, (S / 3 - 1) as u32, (S / 3) as u32, u32::MAX] {
            assert!(r.contains(h));
        }
    }

    #[test]
    fn from_segments_sorts_and_coalesces_abutting() {
        let r = RangeSet::from_segments(vec![
            Segment::new(50, 70),
            Segment::new(10, 30),
            Segment::new(30, 50),
            Segment::new(90, 90), // empty, dropped
        ]);
        assert_eq!(r.segments(), [Segment::new(10, 70)]);
        assert!(r.contains(10) && r.contains(69));
        assert!(!r.contains(70));
    }

    #[test]
    fn take_points_keeps_exact_prefix() {
        let r = RangeSet::interval(0, 20).union(&RangeSet::interval(50, 80));
        let kept = r.take_points(30);
        assert_eq!(kept.points(), 30);
        assert!(kept.contains(10));
        assert!(kept.contains(55));
        assert!(!kept.contains(60));
        // Keeping more than everything is the identity; keeping zero is empty.
        assert_eq!(r.take_points(S), r);
        assert!(r.take_points(0).is_empty());
    }
}
