//! FIPS 180-4 SHA-256.
//!
//! The paper's anonymity machinery leans on a "collision-resistant hash
//! algorithm" in three places: pseudonym generation `n = hash(pr, id)`
//! (§3.1.1), the server-selection mapping `ssa(x)` of the location service
//! (§3.3), and — in our ring-signature instantiation — key derivation for
//! the combining function. SHA-256 serves all three.
//!
//! The compression function runs on the x86-64 SHA extensions when the
//! CPU has them and on a portable body otherwise; the two are tested
//! against each other, and no digest depends on which one ran.

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use agr_crypto::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let want = 64 - self.buffer_len;
            let take = want.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. A buffer
        // with fewer than 8 bytes free after the 0x80 takes a second block.
        let mut block = self.buffer;
        let len = self.buffer_len;
        block[len] = 0x80;
        block[len + 1..].fill(0);
        if len >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: hash `data` in a single call.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several parts (a common pattern when
    /// binding pseudonyms, identities, and timestamps together).
    #[must_use]
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Renders a digest as lowercase hex (the form the FIPS vectors use).
    #[cfg(test)]
    fn to_hex(digest: &[u8; 32]) -> String {
        let mut s = String::with_capacity(64);
        for b in digest {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// One compression, on the x86-64 SHA extensions when the CPU has
    /// them and on [`Sha256::compress_portable`] otherwise. Both bodies
    /// compute the same function, so the choice never shows in a digest.
    #[allow(unsafe_code)]
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if !portable_only()
            && std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `ni::compress` needs sha, sse2, ssse3 and sse4.1; the
            // CPU reports sha and sse4.1, and sse4.1 implies ssse3 and sse2.
            unsafe { ni::compress(&mut self.state, block) };
            return;
        }
        self.compress_portable(block);
    }

    /// The portable compression body: the fallback where the CPU lacks
    /// the SHA extensions, and the oracle the fast body is tested against.
    fn compress_portable(&mut self, block: &[u8; 64]) {
        // The message schedule lives in a rolling 16-word window: round
        // `i >= 16` overwrites `w[i - 16]`, the oldest word, with `w[i]`.
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        // One round. Instead of shifting all eight working variables, a
        // round writes only the new `a` (into the slot `h` held) and the
        // new `e` (into `d`'s slot); the next round names the slots one
        // position rotated, so eight rounds bring the names back home.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let i = $i;
                let wi = if i < 16 { w[i] } else { schedule(&mut w, i) };
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[i])
                    .wrapping_add(wi);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            };
        }
        for i in (0..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, i);
            round!(h, a, b, c, d, e, f, g, i + 1);
            round!(g, h, a, b, c, d, e, f, i + 2);
            round!(f, g, h, a, b, c, d, e, i + 3);
            round!(e, f, g, h, a, b, c, d, i + 4);
            round!(d, e, f, g, h, a, b, c, i + 5);
            round!(c, d, e, f, g, h, a, b, i + 6);
            round!(b, c, d, e, f, g, h, a, i + 7);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Whether this test thread has pinned hashing to the portable body.
#[cfg(all(test, target_arch = "x86_64"))]
fn portable_only() -> bool {
    tests::PORTABLE_ONLY.with(std::cell::Cell::get)
}

#[cfg(all(not(test), target_arch = "x86_64"))]
#[inline(always)]
fn portable_only() -> bool {
    false
}

/// Message schedule word `w[i]` for round `i >= 16`, computed in place
/// of `w[i - 16]` in the rolling window (indices are taken mod 16).
#[inline(always)]
fn schedule(w: &mut [u32; 16], i: usize) -> u32 {
    let w15 = w[(i + 1) & 15];
    let w2 = w[(i + 14) & 15];
    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
    let word = w[i & 15]
        .wrapping_add(s0)
        .wrapping_add(w[(i + 9) & 15])
        .wrapping_add(s1);
    w[i & 15] = word;
    word
}

/// The compression function on the x86-64 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the working variables split across
/// two registers, `ABEF` and `CDGH` (most significant lane first), with
/// the two rounds' `W + K` words in the low lanes of its third operand;
/// `sha256msg1` and `sha256msg2` compute four message-schedule words at a
/// time. Every intrinsic here takes and returns values, so the function
/// needs no `unsafe` inside; only calling it on a CPU without the
/// features would be unsound, which the caller's detection rules out.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [a, b, c, d, e, f, g, h] = *state;
        let (abef_in, cdgh_in) = (lanes(f, e, b, a), lanes(h, g, d, c));
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        // The message schedule lives in four registers of four words
        // each; a new quad overwrites the oldest, so the names rotate.
        let mut w0 = lanes(m[0], m[1], m[2], m[3]);
        let mut w1 = lanes(m[4], m[5], m[6], m[7]);
        let mut w2 = lanes(m[8], m[9], m[10], m[11]);
        let mut w3 = lanes(m[12], m[13], m[14], m[15]);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for quad in (4..16).step_by(4) {
            w0 = schedule4(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, quad);
            w1 = schedule4(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, quad + 1);
            w2 = schedule4(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, quad + 2);
            w3 = schedule4(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, quad + 3);
        }
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        // `as u32` reinterprets the extracted lane's bits.
        *state = [
            _mm_extract_epi32(abef, 3) as u32,
            _mm_extract_epi32(abef, 2) as u32,
            _mm_extract_epi32(cdgh, 3) as u32,
            _mm_extract_epi32(cdgh, 2) as u32,
            _mm_extract_epi32(abef, 1) as u32,
            _mm_extract_epi32(abef, 0) as u32,
            _mm_extract_epi32(cdgh, 1) as u32,
            _mm_extract_epi32(cdgh, 0) as u32,
        ];
    }

    /// Rounds `4 * quad .. 4 * quad + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[4 * quad..4 * quad + 4];
        let wk = _mm_add_epi32(w, lanes(k[0], k[1], k[2], k[3]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The four schedule words after `w0 .. w3` (oldest first).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule4(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Four lanes, the first argument in the least significant one.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(x0: u32, x1: u32, x2: u32, x3: u32) -> __m128i {
        // `as i32` reinterprets the bits; the intrinsic takes signed lanes.
        _mm_set_epi32(x3 as i32, x2 as i32, x1 as i32, x0 as i32)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Set by `vectors_on_portable_body`: this test thread hashes on
        /// `compress_portable` whatever the CPU offers.
        pub(super) static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// The known-answer tests below run on the compression the CPU
    /// selects; this runs them again on the portable body, so the
    /// fallback stays covered on hosts with the SHA extensions.
    #[test]
    fn vectors_on_portable_body() {
        PORTABLE_ONLY.with(|p| p.set(true));
        empty_string();
        abc();
        two_block_message();
        million_a();
        exactly_56_bytes_padding_edge();
        exactly_64_bytes();
        known_answers_at_padding_edges();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The selected compression equals the portable one on any chaining
        /// state, not only the states real messages reach. On a host with
        /// the SHA extensions this is the fast body against its oracle.
        #[test]
        fn selected_compression_matches_portable(
            words in collection::vec(any::<u32>(), 8),
            block in any::<[u8; 64]>(),
        ) {
            let state: [u32; 8] = words.try_into().expect("8 words");
            let mut selected = Sha256 { state, ..Sha256::new() };
            let mut portable = selected.clone();
            selected.compress(&block);
            portable.compress_portable(&block);
            prop_assert_eq!(selected.state, portable.state);
        }
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_56_bytes_padding_edge() {
        // 56 bytes forces the length field into a second block.
        let data = vec![0x41u8; 56];
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(&data)),
            "6ea719cefa4b31862035a7fa606b7cc3602f46231117d135cc7119b3c1412314"
        );
    }

    #[test]
    fn exactly_64_bytes() {
        let data = vec![0x41u8; 64];
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(&data)),
            "d53eda7a637c99cc7fb566d96e9fa109bf15c478410a3f5eb4d4c4e26cd081f6"
        );
    }

    /// Digests of `0, 1, 2, …` (mod 256) at every padding edge, computed
    /// by the byte-at-a-time padding and 64-word schedule this file used
    /// before its compression loop was unrolled.
    #[test]
    fn known_answers_at_padding_edges() {
        let pattern = |len: usize| -> Vec<u8> { (0..=255u8).cycle().take(len).collect() };
        let cases: [(usize, &str); 11] = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
            ),
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                128,
                "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
            ),
            (
                1000,
                "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f",
            ),
        ];
        for (len, hex) in cases {
            assert_eq!(
                Sha256::to_hex(&Sha256::digest(&pattern(len))),
                hex,
                "length {len}"
            );
        }
        // The 1000-byte message again, fed in odd-sized pieces that cross
        // block boundaries at every offset parity.
        let data = pattern(1000);
        let mut h = Sha256::new();
        let mut rest = &data[..];
        for size in [1usize, 3, 7, 13, 31, 55, 63, 65, 119].iter().cycle() {
            let (piece, tail) = rest.split_at((*size).min(rest.len()));
            h.update(piece);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(Sha256::to_hex(&h.finalize()), cases[10].1);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(
                h.finalize(),
                Sha256::digest(&data),
                "chunk size {chunk} disagreed"
            );
        }
    }

    #[test]
    fn digest_parts_is_concatenation() {
        assert_eq!(Sha256::digest_parts(&[b"ab", b"c"]), Sha256::digest(b"abc"));
        assert_eq!(Sha256::digest_parts(&[]), Sha256::digest(b""));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\x00"));
    }
}
