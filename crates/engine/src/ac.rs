//! Aho–Corasick multi-pattern matcher.
//!
//! Substrate for the Signature and Blaster modules: Bro's signature engine
//! matches byte patterns against packet payloads in the event engine. This
//! is a standard goto/fail automaton over byte alphabets with a dense
//! transition table per state (payloads are small; states are few — the
//! pattern sets are NIDS signatures, not dictionaries).

/// A compiled multi-pattern automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Dense next-state table: `goto_[state * 256 + byte]`.
    goto_: Vec<u32>,
    /// Patterns ending at each state (indices into the original set).
    output: Vec<Vec<u32>>,
    /// `accept[s]`: some pattern ends at state `s` (`output[s]` is not
    /// empty), read by the scans that only ask whether anything matched.
    accept: Vec<bool>,
    n_patterns: usize,
}

impl AhoCorasick {
    /// Build from a pattern set. Empty patterns are rejected.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        assert!(!patterns.is_empty(), "empty pattern set");
        // Trie construction.
        let mut goto_: Vec<u32> = vec![0; 256]; // state 0 = root
        let mut fail: Vec<u32> = vec![0];
        let mut output: Vec<Vec<u32>> = vec![Vec::new()];
        let mut children: Vec<Vec<(u8, u32)>> = vec![Vec::new()];

        for (pi, pat) in patterns.iter().enumerate() {
            let pat = pat.as_ref();
            assert!(!pat.is_empty(), "empty pattern");
            let mut s = 0u32;
            for &b in pat {
                let next = goto_[s as usize * 256 + b as usize];
                if next != 0 {
                    s = next;
                } else {
                    let ns = fail.len() as u32;
                    goto_.extend(std::iter::repeat_n(0, 256));
                    fail.push(0);
                    output.push(Vec::new());
                    children.push(Vec::new());
                    goto_[s as usize * 256 + b as usize] = ns;
                    children[s as usize].push((b, ns));
                    s = ns;
                }
            }
            output[s as usize].push(pi as u32);
        }

        // BFS failure links; convert goto to a full DFA (dense table).
        let mut queue = std::collections::VecDeque::new();
        for &s in goto_.iter().take(256) {
            if s != 0 {
                fail[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s as usize];
            // Merge outputs from the failure state.
            let inherited: Vec<u32> = output[f as usize].clone();
            output[s as usize].extend(inherited);
            for b in 0..256usize {
                let t = goto_[s as usize * 256 + b];
                if t != 0 {
                    fail[t as usize] = goto_[f as usize * 256 + b];
                    queue.push_back(t);
                } else {
                    goto_[s as usize * 256 + b] = goto_[f as usize * 256 + b];
                }
            }
        }

        let accept = output.iter().map(|o| !o.is_empty()).collect();
        AhoCorasick { goto_, output, accept, n_patterns: patterns.len() }
    }

    pub fn num_states(&self) -> usize {
        self.goto_.len() / 256
    }

    pub fn num_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Scan `haystack`, invoking `on_match(pattern_index, end_offset)` for
    /// every occurrence (including overlaps). Returns the match count.
    pub fn scan(&self, haystack: &[u8], mut on_match: impl FnMut(usize, usize)) -> usize {
        let mut s = 0u32;
        let mut count = 0;
        for (i, &b) in haystack.iter().enumerate() {
            s = self.goto_[s as usize * 256 + b as usize];
            for &pi in &self.output[s as usize] {
                on_match(pi as usize, i + 1);
                count += 1;
            }
        }
        count
    }

    /// Does any pattern occur in `haystack`?
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut s = 0u32;
        for &b in haystack {
            s = self.goto_[s as usize * 256 + b as usize];
            if self.accept[s as usize] {
                return true;
            }
        }
        false
    }

    /// Streaming scan: resume from `state` (0 = fresh stream), consume
    /// `chunk`, and return `(new_state, matched)`. Because the automaton
    /// state carries the partially-matched suffix, patterns split across
    /// packet boundaries are still found — the reason real NIDS signature
    /// engines run over the reassembled byte stream, not per packet.
    pub fn scan_stream(&self, state: u32, chunk: &[u8]) -> (u32, bool) {
        let mut s = state;
        let mut matched = false;
        for &b in chunk {
            s = self.goto_[s as usize * 256 + b as usize];
            matched |= self.accept[s as usize];
        }
        (s, matched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pattern() {
        let ac = AhoCorasick::new(&[b"abc"]);
        assert!(ac.is_match(b"xxabcxx"));
        assert!(!ac.is_match(b"abxbc"));
        let mut hits = Vec::new();
        ac.scan(b"abcabc", |p, end| hits.push((p, end)));
        assert_eq!(hits, vec![(0, 3), (0, 6)]);
    }

    #[test]
    fn overlapping_patterns() {
        let ac = AhoCorasick::new(&[b"he".as_ref(), b"she", b"hers", b"his"]);
        let mut hits = Vec::new();
        ac.scan(b"ushers", |p, _| hits.push(p));
        // "ushers" contains "she" (1), "he" (0), "hers" (2).
        hits.sort();
        assert_eq!(hits, vec![0, 1, 2]);
    }

    #[test]
    fn suffix_outputs_inherited() {
        let ac = AhoCorasick::new(&[b"abcd".as_ref(), b"bc"]);
        let mut hits = Vec::new();
        ac.scan(b"abcd", |p, end| hits.push((p, end)));
        assert!(hits.contains(&(1, 3)), "inner pattern via failure path");
        assert!(hits.contains(&(0, 4)));
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[&b"\x90\x90\x90"[..], &b"\x00\x01"[..]]);
        assert!(ac.is_match(b"zz\x90\x90\x90zz"));
        assert!(ac.is_match(b"\x00\x01filename"));
        assert!(!ac.is_match(b"\x90\x90q\x90"));
    }

    #[test]
    fn match_count_and_states() {
        let ac = AhoCorasick::new(&[b"aa"]);
        let n = ac.scan(b"aaaa", |_, _| {});
        assert_eq!(n, 3, "overlapping matches all reported");
        assert_eq!(ac.num_patterns(), 1);
        assert_eq!(ac.num_states(), 3);
    }

    #[test]
    fn streaming_matches_across_chunk_boundaries() {
        let ac = AhoCorasick::new(&[b"msblast.exe"]);
        // Split the pattern across three chunks.
        let (s1, m1) = ac.scan_stream(0, b"...msbl");
        assert!(!m1);
        let (s2, m2) = ac.scan_stream(s1, b"ast.e");
        assert!(!m2);
        let (_, m3) = ac.scan_stream(s2, b"xe...");
        assert!(m3, "pattern split across chunks must match");
        // Per-chunk scans (state reset) miss it — the failure mode
        // streaming exists to avoid.
        assert!(!ac.is_match(b"...msbl"));
        assert!(!ac.is_match(b"ast.e"));
        assert!(!ac.is_match(b"xe..."));
    }

    #[test]
    fn real_signatures() {
        let ac =
            AhoCorasick::new(&[&b"msblast.exe"[..], nwdp_traffic::session::templates::MALWARE_SIG]);
        assert!(ac.is_match(nwdp_traffic::session::templates::BLASTER));
        assert!(!ac.is_match(b"GET /index.html HTTP/1.1"));
    }
}
