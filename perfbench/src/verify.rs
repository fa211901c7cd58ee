//! Output checking and failure accounting. Every timed operation's
//! output is compared with a reference computed before the clock
//! started; the comparison runs outside the timed region.

/// A 64-bit digest of a set of receive buffers (lengths included), fast
/// enough to check service completions between reactor ticks.
pub fn digest(bufs: &[Vec<u8>]) -> u64 {
    let mut h = mix(0x9E37_79B9_7F4A_7C15 ^ bufs.len() as u64);
    for b in bufs {
        h = mix(h ^ b.len() as u64);
        let mut words = b.chunks_exact(8);
        for w in &mut words {
            h = mix(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        h = mix(h ^ u64::from_le_bytes(tail) ^ 0xFF);
    }
    h
}

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (x ^ (x >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 32)
}

/// Total bytes in a set of receive buffers.
pub fn total_bytes(bufs: &[Vec<u8>]) -> usize {
    bufs.iter().map(Vec::len).sum()
}

/// Counts attempted operations and the ones that failed: errors,
/// admission rejections and wrong outputs. A wrong output also makes the
/// run incorrect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were rejected, or produced wrong bytes.
    pub failed: u64,
    /// The subset of `failed` whose output was wrong.
    pub wrong: u64,
}

impl Ledger {
    /// Records one operation whose output `got` must equal `want`.
    /// Returns whether it did.
    pub fn check(&mut self, got: &[Vec<u8>], want: &[Vec<u8>]) -> bool {
        self.check_digest(digest(got), digest(want))
    }

    /// [`Self::check`] on precomputed digests.
    pub fn check_digest(&mut self, got: u64, want: u64) -> bool {
        self.attempted += 1;
        let ok = got == want;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
        ok
    }

    /// Records one operation that errored or was rejected.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records one operation that succeeded and has no output to compare.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// `true` while no output has been wrong.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
