//! The `Design_wrapper` algorithm: wrapper scan chain construction for a
//! given TAM width.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bfd::partition_bfd;
use crate::{CoreTest, Cycles, TamWidth, WrapperError};

/// The scan test-time formula `(1 + max(si, so)) · p + min(si, so)`; see
/// [`WrapperDesign::test_time`].
pub(crate) fn test_time(scan_in: u64, scan_out: u64, patterns: u64) -> Cycles {
    (1 + scan_in.max(scan_out)) * patterns + scan_in.min(scan_out)
}

/// A concrete wrapper design for one core at one TAM width.
///
/// A wrapper design arranges the core's internal scan chains, wrapper input
/// cells (functional inputs), wrapper output cells (functional outputs), and
/// bidirectional cells into `width` *wrapper scan chains*. The tester shifts
/// stimuli in through the longest scan-in path and captures responses out
/// through the longest scan-out path, so the two quantities that matter are:
///
/// * `scan_in`  — `max_k (input-side cells on chain k + scan flops on k)`
/// * `scan_out` — `max_k (scan flops on k + output-side cells on k)`
///
/// The test application time for `p` patterns follows the classic formula
/// used throughout the paper (and its references \[12, 14\]):
///
/// ```text
/// T = (1 + max(scan_in, scan_out)) · p + min(scan_in, scan_out)
/// ```
///
/// # Example
///
/// ```
/// use soctam_wrapper::{CoreTest, WrapperDesign};
///
/// # fn main() -> Result<(), soctam_wrapper::WrapperError> {
/// let core = CoreTest::new(8, 4, 0, vec![30, 20, 10], 50)?;
/// let narrow = WrapperDesign::design(&core, 1)?;
/// let wide = WrapperDesign::design(&core, 3)?;
/// assert!(wide.test_time() < narrow.test_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WrapperDesign {
    width: TamWidth,
    scan_in: u64,
    scan_out: u64,
    patterns: u64,
    chain_flops: Vec<u64>,
    chain_inputs: Vec<u64>,
    chain_outputs: Vec<u64>,
}

impl WrapperDesign {
    /// Designs a wrapper for `core` using `width` TAM wires via
    /// Best-Fit-Decreasing.
    ///
    /// The internal scan chains are partitioned first (longest chains
    /// placed on the least-loaded wrapper chain); wrapper input cells are
    /// then spread to equalize scan-in lengths, output cells to equalize
    /// scan-out lengths, and bidirectional cells to equalize the larger of
    /// the two.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::ZeroWidth`] if `width == 0`.
    pub fn design(core: &CoreTest, width: TamWidth) -> Result<Self, WrapperError> {
        Ok(Self::design_with_placement(core, width)?.0)
    }

    /// Like [`WrapperDesign::design`], additionally reporting which
    /// internal scan chain landed on which wrapper chain (as
    /// `placement[chain_index] = wrapper_chain_index`, in the core's scan
    /// chain order) and the per-chain bidirectional cell counts.
    ///
    /// Used by the cell-level [`crate::WrapperLayout`].
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::ZeroWidth`] if `width == 0`.
    pub(crate) fn design_with_placement(
        core: &CoreTest,
        width: TamWidth,
    ) -> Result<(Self, Vec<usize>, Vec<u64>), WrapperError> {
        if width == 0 {
            return Err(WrapperError::ZeroWidth);
        }
        let k = usize::from(width);
        let partition = partition_bfd(core.scan_chains(), k);
        let chain_flops: Vec<u64> = partition.loads().to_vec();
        let placement = partition.assignment().to_vec();

        let mut chain_inputs = vec![0u64; k];
        let mut chain_outputs = vec![0u64; k];
        let mut chain_bidirs = vec![0u64; k];

        // Wrapper input cells: each lengthens one chain's scan-in path.
        // Greedily place each cell on the chain with the shortest current
        // scan-in (flops + input cells so far), ties toward the lowest
        // chain index; `place_unit_cells` evaluates that greedy process in
        // closed form.
        let mut in_len: Vec<u64> = chain_flops.clone();
        place_unit_cells(&mut in_len, &mut chain_inputs, core.inputs());

        // Wrapper output cells likewise for scan-out.
        let mut out_len: Vec<u64> = chain_flops.clone();
        place_unit_cells(&mut out_len, &mut chain_outputs, core.outputs());

        // Bidirectional cells sit on both the scan-in and scan-out paths of
        // their chain; place each on the chain minimizing the worse of the
        // two resulting lengths. Same heap scheme, keyed on that cost: a
        // placement changes only the placed chain's cost, so re-pushing the
        // one updated entry keeps every key current.
        if core.bidirs() > 0 {
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..k)
                .map(|i| Reverse(((in_len[i] + 1).max(out_len[i] + 1), i)))
                .collect();
            for _ in 0..core.bidirs() {
                let Reverse((_, best)) = heap.pop().expect("one entry per chain");
                in_len[best] += 1;
                out_len[best] += 1;
                chain_inputs[best] += 1;
                chain_outputs[best] += 1;
                chain_bidirs[best] += 1;
                heap.push(Reverse(((in_len[best] + 1).max(out_len[best] + 1), best)));
            }
        }

        let design = Self {
            width,
            scan_in: in_len.iter().copied().max().unwrap_or(0),
            scan_out: out_len.iter().copied().max().unwrap_or(0),
            patterns: core.patterns(),
            chain_flops,
            chain_inputs,
            chain_outputs,
        };
        Ok((design, placement, chain_bidirs))
    }

    /// The TAM width (number of wrapper scan chains) of this design.
    pub fn width(&self) -> TamWidth {
        self.width
    }

    /// Longest scan-in path over all wrapper chains, in cycles per pattern.
    pub fn scan_in(&self) -> u64 {
        self.scan_in
    }

    /// Longest scan-out path over all wrapper chains, in cycles per pattern.
    pub fn scan_out(&self) -> u64 {
        self.scan_out
    }

    /// Number of external test patterns the design applies.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Scan flops placed on each wrapper chain.
    pub fn chain_flops(&self) -> &[u64] {
        &self.chain_flops
    }

    /// Input-side wrapper cells on each wrapper chain (includes bidirs).
    pub fn chain_inputs(&self) -> &[u64] {
        &self.chain_inputs
    }

    /// Output-side wrapper cells on each wrapper chain (includes bidirs).
    pub fn chain_outputs(&self) -> &[u64] {
        &self.chain_outputs
    }

    /// Test application time in cycles:
    /// `(1 + max(si, so)) · p + min(si, so)`.
    ///
    /// Scan-in of pattern *i+1* overlaps scan-out of pattern *i*, hence the
    /// `max` per pattern, one capture cycle per pattern, and a final
    /// residual shift-out of `min(si, so)`.
    pub fn test_time(&self) -> Cycles {
        test_time(self.scan_in, self.scan_out, self.patterns)
    }

    /// Extra cycles charged when a test of this design is preempted and
    /// later resumed: the interrupted pattern's response must be scanned
    /// out and its state scanned back in.
    pub fn preemption_penalty(&self) -> Cycles {
        self.scan_in + self.scan_out
    }
}

/// Greedily drops `cells` unit-length wrapper cells one at a time onto the
/// chain with the shortest current length (ties toward the lowest chain
/// index), updating the per-chain length and placed-cell tallies.
///
/// The one-at-a-time process is evaluated in closed form by water-filling:
/// repeatedly incrementing the minimum `(length, chain)` first raises the
/// shortest chains in lockstep to a common level `T`, then deals the
/// remainder one cell each to the lowest-indexed chains at that level —
/// O(k log k) total instead of O(cells · log k), with the exact same final
/// distribution (pinned by the `heap_placement_matches_scan_reference`
/// proptest below).
fn place_unit_cells(lengths: &mut [u64], counts: &mut [u64], cells: u32) {
    if cells == 0 {
        return;
    }
    let k = lengths.len();
    if k == 1 {
        // A single chain takes everything; skip the bookkeeping.
        lengths[0] += u64::from(cells);
        counts[0] += u64::from(cells);
        return;
    }
    let mut cells = u64::from(cells);

    // Shortest-first (stable, so equal lengths keep chain-index order).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&i| lengths[i]);

    // Grow the pool of shortest chains: raising the current pool to the
    // next chain's length absorbs `(next - level) * pool` cells.
    let mut pool = 1usize;
    let mut level = lengths[order[0]];
    while pool < k {
        let next = lengths[order[pool]];
        let need = (next - level) * pool as u64;
        if need > cells {
            break;
        }
        cells -= need;
        level = next;
        pool += 1;
    }

    // Deal the rest round-robin over the pool: full rounds raise the
    // common level; the remainder goes one cell each to the
    // lowest-indexed pool chains (the one-at-a-time tie-break).
    level += cells / pool as u64;
    let extras = (cells % pool as u64) as usize;
    let winners = &mut order[..pool];
    winners.sort_unstable();
    for (rank, &i) in winners.iter().enumerate() {
        let new_len = level + u64::from(rank < extras);
        counts[i] += new_len - lengths[i];
        lengths[i] = new_len;
    }
}

/// The scan lengths `(scan_in, scan_out)` of [`WrapperDesign::design`] for
/// one core at many widths, without building a design at any of them: the
/// per-width kernel behind [`crate::RectangleSet::build`].
///
/// With no bidirectional cells the design's lengths have a closed form.
/// BFD leaves a longest wrapper chain of `L(w)` flops; `place_unit_cells`
/// then water-fills the input cells onto the chains, so the longest
/// scan-in path is `L(w)` unless the smallest water level that absorbs
/// all inputs rises above it, and that level is then `⌈(F + I) / w⌉` (`F`
/// scan flops, `I` inputs). Scan-out is the same with the outputs. Only
/// `L(w)` depends on the partition: at `w ≥ #chains` every chain gets a
/// wrapper chain of its own, and below that a min-heap of loads replays
/// BFD (which equally loaded chain takes the next scan chain does not
/// change the loads). Cores with bidirectional cells fall back to the full
/// design.
///
/// The chain lengths are sorted once, and the heap's storage is reused
/// from width to width.
pub(crate) struct ScanLengths<'a> {
    core: &'a CoreTest,
    /// Scan-chain lengths, longest first.
    chains: Vec<u64>,
    /// BFD heap storage, kept across widths.
    loads: Vec<Reverse<u64>>,
}

impl<'a> ScanLengths<'a> {
    pub(crate) fn new(core: &'a CoreTest) -> Self {
        let mut chains: Vec<u64> = core.scan_chains().iter().map(|&l| u64::from(l)).collect();
        chains.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            core,
            chains,
            loads: Vec::new(),
        }
    }

    /// `(scan_in, scan_out)` of `WrapperDesign::design(core, width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub(crate) fn at(&mut self, width: TamWidth) -> (u64, u64) {
        assert!(width > 0, "width must be at least one wire");
        let core = self.core;
        if core.bidirs() > 0 {
            let d = WrapperDesign::design(core, width).expect("width >= 1");
            return (d.scan_in(), d.scan_out());
        }
        let longest = self.longest_load(usize::from(width));
        let level = |cells: u32| (core.scan_flops() + u64::from(cells)).div_ceil(u64::from(width));
        (
            longest.max(level(core.inputs())),
            longest.max(level(core.outputs())),
        )
    }

    /// The longest of the `k` wrapper chains BFD builds from the scan
    /// chains.
    fn longest_load(&mut self, k: usize) -> u64 {
        if k >= self.chains.len() {
            return self.chains.first().copied().unwrap_or(0);
        }
        // The `k` longest chains each take an empty wrapper chain; the
        // rest go one by one onto the lightest.
        let mut loads = std::mem::take(&mut self.loads);
        loads.clear();
        loads.extend(self.chains[..k].iter().map(|&l| Reverse(l)));
        let mut heap = BinaryHeap::from(loads);
        let mut longest = self.chains[0];
        for &len in &self.chains[k..] {
            let mut lightest = heap.peek_mut().expect("k >= 1");
            lightest.0 += len;
            longest = longest.max(lightest.0);
        }
        self.loads = heap.into_vec();
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn core(inputs: u32, outputs: u32, chains: Vec<u32>, patterns: u64) -> CoreTest {
        CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap()
    }

    /// Reference `design_with_placement` that finds every greedy placement
    /// target with a first-minimum linear scan instead of a heap.
    fn design_scan_reference(
        core: &CoreTest,
        width: TamWidth,
    ) -> (WrapperDesign, Vec<usize>, Vec<u64>) {
        use crate::bfd::min_load_bin;
        let k = usize::from(width);
        let partition = partition_bfd(core.scan_chains(), k);
        let chain_flops: Vec<u64> = partition.loads().to_vec();
        let placement = partition.assignment().to_vec();

        let mut chain_inputs = vec![0u64; k];
        let mut chain_outputs = vec![0u64; k];
        let mut chain_bidirs = vec![0u64; k];

        let mut in_len = chain_flops.clone();
        for _ in 0..core.inputs() {
            let b = min_load_bin(&in_len);
            in_len[b] += 1;
            chain_inputs[b] += 1;
        }
        let mut out_len = chain_flops.clone();
        for _ in 0..core.outputs() {
            let b = min_load_bin(&out_len);
            out_len[b] += 1;
            chain_outputs[b] += 1;
        }
        for _ in 0..core.bidirs() {
            let costs: Vec<u64> = (0..k)
                .map(|i| (in_len[i] + 1).max(out_len[i] + 1))
                .collect();
            let b = min_load_bin(&costs);
            in_len[b] += 1;
            out_len[b] += 1;
            chain_inputs[b] += 1;
            chain_outputs[b] += 1;
            chain_bidirs[b] += 1;
        }

        let design = WrapperDesign {
            width,
            scan_in: in_len.iter().copied().max().unwrap_or(0),
            scan_out: out_len.iter().copied().max().unwrap_or(0),
            patterns: core.patterns(),
            chain_flops,
            chain_inputs,
            chain_outputs,
        };
        (design, placement, chain_bidirs)
    }

    #[test]
    fn zero_width_rejected() {
        let c = core(1, 1, vec![4], 1);
        assert_eq!(WrapperDesign::design(&c, 0), Err(WrapperError::ZeroWidth));
    }

    #[test]
    fn width_one_serializes_everything() {
        let c = core(8, 4, vec![30, 20, 10], 50);
        let d = WrapperDesign::design(&c, 1).unwrap();
        assert_eq!(d.scan_in(), 60 + 8);
        assert_eq!(d.scan_out(), 60 + 4);
        assert_eq!(d.test_time(), (1 + 68) * 50 + 64);
    }

    #[test]
    fn combinational_core_times() {
        // 32-in/32-out combinational core, 12 patterns, width 8:
        // si = ceil(32/8) = 4 = so; T = (1+4)*12 + 4 = 64.
        let c = core(32, 32, vec![], 12);
        let d = WrapperDesign::design(&c, 8).unwrap();
        assert_eq!(d.scan_in(), 4);
        assert_eq!(d.scan_out(), 4);
        assert_eq!(d.test_time(), 64);
    }

    #[test]
    fn wider_never_slower() {
        let c = core(35, 49, vec![46, 45, 44, 44], 97);
        let mut last = u64::MAX;
        for w in 1..=16 {
            let t = WrapperDesign::design(&c, w).unwrap().test_time();
            assert!(t <= last, "width {w} got slower: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn bidir_cells_lengthen_both_sides() {
        let c = CoreTest::new(0, 0, 6, vec![], 10).unwrap();
        let d = WrapperDesign::design(&c, 3).unwrap();
        assert_eq!(d.scan_in(), 2);
        assert_eq!(d.scan_out(), 2);
    }

    #[test]
    fn excess_width_is_harmless() {
        let c = core(2, 2, vec![5], 9);
        let tight = WrapperDesign::design(&c, 3).unwrap();
        let loose = WrapperDesign::design(&c, 64).unwrap();
        assert_eq!(loose.scan_in(), 5); // single chain dominates
        assert!(loose.test_time() <= tight.test_time());
    }

    #[test]
    fn preemption_penalty_is_si_plus_so() {
        let c = core(8, 4, vec![30, 20, 10], 50);
        let d = WrapperDesign::design(&c, 2).unwrap();
        assert_eq!(d.preemption_penalty(), d.scan_in() + d.scan_out());
    }

    #[test]
    fn chain_accounting_conserves_cells() {
        let c = CoreTest::new(13, 7, 3, vec![9, 9, 4], 5).unwrap();
        let d = WrapperDesign::design(&c, 4).unwrap();
        assert_eq!(d.chain_flops().iter().sum::<u64>(), 22);
        assert_eq!(d.chain_inputs().iter().sum::<u64>(), 13 + 3);
        assert_eq!(d.chain_outputs().iter().sum::<u64>(), 7 + 3);
    }

    proptest! {
        /// scan_in/scan_out never drop below the trivial lower bounds and
        /// test time matches the formula recomputed from parts.
        #[test]
        fn design_invariants(
            inputs in 0u32..60,
            outputs in 0u32..60,
            chains in proptest::collection::vec(1u32..80, 0..12),
            patterns in 1u64..500,
            width in 1u16..32,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, 0, chains.clone(), patterns).unwrap();
            let d = WrapperDesign::design(&c, width).unwrap();

            let longest_chain = chains.iter().copied().max().unwrap_or(0) as u64;
            prop_assert!(d.scan_in() >= longest_chain);
            prop_assert!(d.scan_out() >= longest_chain);
            prop_assert!(d.scan_in() >= c.scan_in_bits().div_ceil(u64::from(width)));
            prop_assert!(d.scan_out() >= c.scan_out_bits().div_ceil(u64::from(width)));

            let long = d.scan_in().max(d.scan_out());
            let short = d.scan_in().min(d.scan_out());
            prop_assert_eq!(d.test_time(), (1 + long) * patterns + short);
        }

        /// The closed-form cell placements pick exactly the chain the
        /// first-minimum linear scan would, cell for cell, so the design,
        /// scan chain placement, and bidir distribution are bit-identical
        /// to the reference implementation.
        #[test]
        fn heap_placement_matches_scan_reference(
            inputs in 0u32..400,
            outputs in 0u32..400,
            bidirs in 0u32..120,
            chains in proptest::collection::vec(1u32..80, 0..12),
            patterns in 1u64..500,
            width in 1u16..64,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            let got = WrapperDesign::design_with_placement(&c, width).unwrap();
            let want = design_scan_reference(&c, width);
            prop_assert_eq!(got, want);
        }

        /// The scan-length kernel reproduces `WrapperDesign::design` at
        /// every width 1..=64 on cores without bidirectional cells, the
        /// closed-form path. Chain lengths are `base + (c % spread)`, so
        /// about half the cases have the near-equal chains of real cores,
        /// where BFD stacks short chains above the longest one.
        #[test]
        fn scan_lengths_match_design_without_bidirs(
            inputs in 0u32..400,
            outputs in 0u32..400,
            chains in proptest::collection::vec(0u32..200, 0..40),
            base in 1u32..200,
            spread in 1u32..200,
            patterns in 1u64..500,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let chains = chains.iter().map(|c| base + c % spread).collect();
            let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
            let mut kernel = ScanLengths::new(&c);
            for w in 1..=64 {
                let d = WrapperDesign::design(&c, w).unwrap();
                prop_assert_eq!(kernel.at(w), (d.scan_in(), d.scan_out()), "width {}", w);
            }
        }

        /// Cores with bidirectional cells take the fallback and still match
        /// at every width 1..=64.
        #[test]
        fn scan_lengths_match_design_with_bidirs(
            inputs in 0u32..400,
            outputs in 0u32..400,
            bidirs in 1u32..120,
            chains in proptest::collection::vec(0u32..200, 0..40),
            base in 1u32..200,
            spread in 1u32..200,
            patterns in 1u64..500,
        ) {
            let chains = chains.iter().map(|c| base + c % spread).collect();
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            let mut kernel = ScanLengths::new(&c);
            for w in 1..=64 {
                let d = WrapperDesign::design(&c, w).unwrap();
                prop_assert_eq!(kernel.at(w), (d.scan_in(), d.scan_out()), "width {}", w);
            }
        }

        /// Monotonicity: test time is non-increasing in TAM width.
        #[test]
        fn time_monotone_in_width(
            inputs in 0u32..40,
            outputs in 0u32..40,
            chains in proptest::collection::vec(1u32..60, 0..10),
            patterns in 1u64..200,
            width in 1u16..31,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
            let t_narrow = WrapperDesign::design(&c, width).unwrap().test_time();
            let t_wide = WrapperDesign::design(&c, width + 1).unwrap().test_time();
            prop_assert!(t_wide <= t_narrow);
        }
    }
}
