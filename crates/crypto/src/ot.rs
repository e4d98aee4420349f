//! Batched 1-out-of-2 oblivious transfer over `Z_p*`.
//!
//! PEM's Private Market Evaluation (Protocol 2) ends with a garbled-circuit
//! comparison between two randomly chosen agents; the circuit evaluator
//! obtains the wire labels for its own input bits via OT. We implement
//! the Chou–Orlandi "simplest OT" (LATINCRYPT 2015) in a prime-order
//! subgroup of `Z_p*` with `p` a safe prime, secure against semi-honest
//! adversaries (the paper's threat model, Section II-B). As in the
//! published protocol, one sender setup serves a whole batch of `n`
//! transfers:
//!
//! ```text
//! Sender:            a ←$ [1, q),  A = g^a,  T = A^a        (once per batch)
//! Receiver(c_i):     b_i ←$ [1, q),  B_i = g^{b_i}          if c_i = 0
//!                                    B_i = A · g^{b_i}      if c_i = 1
//! Sender:            k0_i = H(i, A, B_i, B_i^a)
//!                    k1_i = H(i, A, B_i, B_i^a · T⁻¹)       ((B_i/A)^a)
//!                    e_{j,i} = m_{j,i} ⊕ KDF(kj_i)
//! Receiver:          k_i = H(i, A, B_i, A^{b_i}) → m_{c_i,i} = e_{c_i,i} ⊕ KDF(k_i)
//! ```
//!
//! The sender's `B_i^a` share one exponent recoding and one scratch; the
//! receiver's `A^{b_i}` come off one comb table on `A` once the batch is
//! long enough to repay building it. Keys bind the transfer index, so a
//! ciphertext moved to another index decrypts to noise. A single OT is a
//! batch of one ([`run_local_ot`]).
//!
//! Groups: RFC 2409 Oakley Group 2 (1024-bit) and RFC 3526 Group 14
//! (2048-bit), plus a 192-bit safe-prime group for fast unit tests. All
//! primes are verified safe primes.

use std::sync::{Arc, OnceLock};

use pem_telemetry::Counter;
use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, ExpDigits, FixedBasePow, Montgomery};

use crate::error::CryptoError;
use crate::sha256::{kdf, Sha256};

/// Transfers completed and batches run (sender side) — no-ops until a
/// telemetry collector is installed.
static OT_TRANSFERS: Counter = Counter::new();
static OT_BATCHES: Counter = Counter::new();

fn register_ot_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("ot/transfers", &OT_TRANSFERS);
        pem_telemetry::register_counter("ot/batches", &OT_BATCHES);
    });
}

/// Smallest batch for which the receiver builds a comb table on `A`:
/// the build costs about five ladders and each comb pow saves about
/// four fifths of one, so shorter batches stay on the ladder.
const RECEIVER_COMB_MIN_BATCH: usize = 8;

/// RFC 2409 Oakley Group 2 prime (1024-bit safe prime), generator 2.
const MODP_1024_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 14 prime (2048-bit safe prime), generator 2.
const MODP_2048_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// 192-bit safe prime for fast test profiles (generated and verified for
/// this project; NOT cryptographically sized). Generator 4 (a quadratic
/// residue, hence of prime order `q = (p-1)/2`).
const TEST_192_HEX: &str = "B664FE32B4E948E95FD8E69DD893AD839349C3CF7FC02893";

/// A multiplicative group `Z_p*` (safe prime `p`) with fixed generator.
///
/// The Montgomery context and the generator's comb table are built
/// lazily and live behind `Arc`s: clones share them, so a group cloned
/// before first use still builds each of them once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DhGroup {
    p: BigUint,
    g: BigUint,
    /// Subgroup order `q = (p-1)/2`.
    q: BigUint,
    #[serde(skip)]
    mont: Arc<OnceLock<Montgomery>>,
    /// Comb table for the generator: every `g^x` costs window-count
    /// multiplications instead of a full square-and-multiply ladder.
    #[serde(skip)]
    g_table: Arc<OnceLock<FixedBasePow>>,
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p && self.g == other.g
    }
}

impl Eq for DhGroup {}

impl DhGroup {
    /// Builds a group from a safe prime and generator.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or `g` is not in `[2, p)`.
    pub fn from_parts(p: BigUint, g: BigUint) -> DhGroup {
        assert!(p.is_odd() && p.bit_length() >= 3, "p must be an odd prime");
        assert!(g >= BigUint::from(2u64) && g < p, "generator out of range");
        let q = (&p - &BigUint::one()) >> 1;
        DhGroup {
            p,
            g,
            q,
            mont: Arc::new(OnceLock::new()),
            g_table: Arc::new(OnceLock::new()),
        }
    }

    /// RFC 2409 Oakley Group 2: 1024-bit MODP, generator 2.
    pub fn modp_1024() -> DhGroup {
        let p = BigUint::from_str_radix(MODP_1024_HEX, 16).expect("const");
        DhGroup::from_parts(p, BigUint::from(2u64))
    }

    /// RFC 3526 Group 14: 2048-bit MODP, generator 2.
    pub fn modp_2048() -> DhGroup {
        let p = BigUint::from_str_radix(MODP_2048_HEX, 16).expect("const");
        DhGroup::from_parts(p, BigUint::from(2u64))
    }

    /// Small 192-bit group for unit tests and fast simulation profiles.
    pub fn test_192() -> DhGroup {
        let p = BigUint::from_str_radix(TEST_192_HEX, 16).expect("const");
        DhGroup::from_parts(p, BigUint::from(4u64))
    }

    /// Selects a group whose prime is at least `bits` wide (192 → test
    /// group, ≤1024 → Oakley 2, otherwise Group 14).
    pub fn for_security(bits: usize) -> DhGroup {
        if bits <= 192 {
            DhGroup::test_192()
        } else if bits <= 1024 {
            DhGroup::modp_1024()
        } else {
            DhGroup::modp_2048()
        }
    }

    /// The prime modulus.
    pub fn p(&self) -> &BigUint {
        &self.p
    }

    /// The generator.
    pub fn g(&self) -> &BigUint {
        &self.g
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn q(&self) -> &BigUint {
        &self.q
    }

    /// Bytes of a fixed-width element encoding: `⌈bits(p)/8⌉`.
    fn element_len(&self) -> usize {
        self.p.bit_length().div_ceil(8)
    }

    fn mont(&self) -> &Montgomery {
        self.mont
            .get_or_init(|| Montgomery::new(self.p.clone()).expect("odd p"))
    }

    /// The generator's comb table, sized for subgroup exponents (wider
    /// exponents fall back to the generic ladder inside
    /// [`FixedBasePow::pow`]).
    pub fn g_table(&self) -> &FixedBasePow {
        self.g_table
            .get_or_init(|| self.mont().fixed_base_table(&self.g, self.q.bit_length()))
    }

    /// `base^exp mod p`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont().modpow(base, exp)
    }

    /// Builds a comb table for an arbitrary base over this group's
    /// modulus, sized for subgroup exponents (Pedersen's `h` and the OT
    /// receiver's `A` use this; the generator's table is cached on the
    /// group itself).
    pub fn fixed_base_table(&self, base: &BigUint) -> FixedBasePow {
        self.mont().fixed_base_table(base, self.q.bit_length())
    }

    /// `g^exp mod p` off the cached fixed-base table — identical bits
    /// to `pow(g(), exp)`, at a fraction of the cost.
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.g_table().pow(exp)
    }

    /// `a * b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont().mul(a, b)
    }

    /// `a^{-1} mod p`.
    pub fn inv(&self, a: &BigUint) -> Option<BigUint> {
        a.mod_inverse(&self.p)
    }

    /// Uniform exponent in `[1, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let span = &self.q - &BigUint::one();
        BigUint::random_below(&span, rng) + BigUint::one()
    }

    /// Validates a received group element: in `(1, p)` (excludes the
    /// identity and out-of-range encodings).
    pub fn validate_element(&self, e: &BigUint) -> Result<(), CryptoError> {
        if e <= &BigUint::one() || e >= &self.p {
            Err(CryptoError::InvalidOtMessage("group element out of range"))
        } else {
            Ok(())
        }
    }
}

/// Derives transfer `index`'s key from its shared point, binding the
/// batch setup `A` and the receiver's `B` (all at fixed width).
fn derive_key(
    group: &DhGroup,
    index: usize,
    big_a: &BigUint,
    big_b: &BigUint,
    shared: &BigUint,
) -> [u8; 32] {
    let len = group.element_len();
    let mut h = Sha256::new();
    h.update(b"pem-ot-key");
    h.update(&(index as u64).to_be_bytes());
    h.update(&big_a.to_bytes_be_padded(len));
    h.update(&big_b.to_bytes_be_padded(len));
    h.update(&shared.to_bytes_be_padded(len));
    h.finalize()
}

fn xor_pad(key: &[u8; 32], m: &[u8]) -> Vec<u8> {
    let pad = kdf(key, b"pem-ot-pad", m.len());
    m.iter().zip(pad.iter()).map(|(x, y)| x ^ y).collect()
}

/// First OT message (sender → receiver), one per batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtSenderSetup {
    /// `A = g^a`.
    pub big_a: BigUint,
}

/// Second OT message (receiver → sender), one per transfer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtReceiverReply {
    /// `B = g^b` or `A·g^b` depending on the choice bit.
    pub big_b: BigUint,
}

/// Third OT message (sender → receiver), one per transfer: both branch
/// ciphertexts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtCiphertexts {
    /// `m0 ⊕ KDF(k0)`.
    pub e0: Vec<u8>,
    /// `m1 ⊕ KDF(k1)`.
    pub e1: Vec<u8>,
}

/// Sender side of a batch of 1-of-2 OTs under one setup.
#[derive(Debug)]
pub struct OtBatchSender {
    group: DhGroup,
    a: BigUint,
    big_a: BigUint,
}

impl OtBatchSender {
    /// Starts a batch, producing its one setup message.
    pub fn new<R: Rng + ?Sized>(group: &DhGroup, rng: &mut R) -> (OtBatchSender, OtSenderSetup) {
        register_ot_counters();
        let a = group.random_exponent(rng);
        let big_a = group.pow_g(&a);
        let setup = OtSenderSetup {
            big_a: big_a.clone(),
        };
        let group = group.clone();
        (OtBatchSender { group, a, big_a }, setup)
    }

    /// Encrypts message pair `i` against reply `i`, for every transfer
    /// of the batch.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the reply and message counts
    /// differ, a pair's messages have different lengths, or any `B_i` is
    /// not a valid group element.
    pub fn encrypt(
        self,
        replies: &[OtReceiverReply],
        messages: &[(&[u8], &[u8])],
    ) -> Result<Vec<OtCiphertexts>, CryptoError> {
        if replies.len() != messages.len() {
            return Err(CryptoError::InvalidOtMessage(
                "reply count does not match the batch",
            ));
        }
        if messages.iter().any(|(m0, m1)| m0.len() != m1.len()) {
            return Err(CryptoError::InvalidOtMessage(
                "branch messages must have equal length",
            ));
        }
        for reply in replies {
            self.group.validate_element(&reply.big_b)?;
        }
        // Every B_i^a, and T = A^a, share one recoding and one scratch.
        let mont = self.group.mont();
        let digits = ExpDigits::recode(&self.a);
        let mut scratch = mont.pow_scratch(&digits);
        let t = mont.modpow_scratch(&self.big_a, &digits, &mut scratch);
        let t_inv = self
            .group
            .inv(&t)
            .ok_or(CryptoError::InvalidOtMessage("non-invertible A^a"))?;
        let cts = replies
            .iter()
            .zip(messages)
            .enumerate()
            .map(|(i, (reply, (m0, m1)))| {
                let p0 = mont.modpow_scratch(&reply.big_b, &digits, &mut scratch);
                let p1 = mont.mul(&p0, &t_inv);
                let k0 = derive_key(&self.group, i, &self.big_a, &reply.big_b, &p0);
                let k1 = derive_key(&self.group, i, &self.big_a, &reply.big_b, &p1);
                OtCiphertexts {
                    e0: xor_pad(&k0, m0),
                    e1: xor_pad(&k1, m1),
                }
            })
            .collect();
        OT_BATCHES.incr();
        OT_TRANSFERS.add(replies.len() as u64);
        Ok(cts)
    }
}

/// Receiver side of a batch of 1-of-2 OTs under one setup.
#[derive(Debug)]
pub struct OtBatchReceiver {
    choices: Vec<bool>,
    keys: Vec<[u8; 32]>,
}

impl OtBatchReceiver {
    /// Answers the sender's setup with one blinded key `B_i` per choice
    /// bit, and derives the matching transfer keys.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if `A` is invalid.
    pub fn new<R: Rng + ?Sized>(
        group: &DhGroup,
        setup: &OtSenderSetup,
        choices: &[bool],
        rng: &mut R,
    ) -> Result<(OtBatchReceiver, Vec<OtReceiverReply>), CryptoError> {
        let big_a = &setup.big_a;
        group.validate_element(big_a)?;
        let a_table =
            (choices.len() >= RECEIVER_COMB_MIN_BATCH).then(|| group.fixed_base_table(big_a));
        let mut keys = Vec::with_capacity(choices.len());
        let mut replies = Vec::with_capacity(choices.len());
        for (i, &choice) in choices.iter().enumerate() {
            let b = group.random_exponent(rng);
            let g_b = group.pow_g(&b);
            let big_b = if choice { group.mul(big_a, &g_b) } else { g_b };
            let shared = match &a_table {
                Some(table) => table.pow(&b),
                None => group.pow(big_a, &b),
            };
            keys.push(derive_key(group, i, big_a, &big_b, &shared));
            replies.push(OtReceiverReply { big_b });
        }
        Ok((
            OtBatchReceiver {
                choices: choices.to_vec(),
                keys,
            },
            replies,
        ))
    }

    /// Decrypts the chosen branch of every transfer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the ciphertext count does not
    /// match the batch or a pair's lengths differ.
    pub fn decrypt(self, cts: &[OtCiphertexts]) -> Result<Vec<Vec<u8>>, CryptoError> {
        if cts.len() != self.keys.len() {
            return Err(CryptoError::InvalidOtMessage(
                "ciphertext count does not match the batch",
            ));
        }
        cts.iter()
            .zip(self.keys.iter().zip(&self.choices))
            .map(|(ct, (key, &choice))| {
                if ct.e0.len() != ct.e1.len() {
                    return Err(CryptoError::InvalidOtMessage(
                        "branch ciphertexts must have equal length",
                    ));
                }
                Ok(xor_pad(key, if choice { &ct.e1 } else { &ct.e0 }))
            })
            .collect()
    }
}

/// Runs both sides of a single OT (a batch of one) in memory — the
/// reference flow used by tests and kernel benchmarks.
///
/// # Errors
///
/// Propagates [`OtBatchSender::encrypt`] / [`OtBatchReceiver`] validation failures.
pub fn run_local_ot<R: Rng + ?Sized>(
    group: &DhGroup,
    m0: &[u8],
    m1: &[u8],
    choice: bool,
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    let (sender, setup) = OtBatchSender::new(group, rng);
    let (receiver, replies) = OtBatchReceiver::new(group, &setup, &[choice], rng)?;
    let cts = sender.encrypt(&replies, &[(m0, m1)])?;
    Ok(receiver.decrypt(&cts)?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HashDrbg;
    use pem_bignum::is_prime;

    #[test]
    fn test_group_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check");
        let g = DhGroup::test_192();
        assert!(is_prime(g.p(), &mut rng), "p must be prime");
        assert!(is_prime(g.q(), &mut rng), "(p-1)/2 must be prime");
        assert_eq!(g.p().bit_length(), 192);
        // Generator 4 has order q: 4^q = 1 mod p.
        assert_eq!(g.pow(g.g(), g.q()), BigUint::one());
    }

    #[test]
    fn modp_1024_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check-1024");
        let g = DhGroup::modp_1024();
        assert_eq!(g.p().bit_length(), 1024);
        assert!(is_prime(g.p(), &mut rng));
        assert!(is_prime(g.q(), &mut rng));
    }

    #[test]
    #[ignore = "2048-bit double primality check is slow; run with --ignored"]
    fn modp_2048_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check-2048");
        let g = DhGroup::modp_2048();
        assert_eq!(g.p().bit_length(), 2048);
        assert!(is_prime(g.p(), &mut rng));
        assert!(is_prime(g.q(), &mut rng));
    }

    #[test]
    fn fixed_base_generator_matches_generic_pow() {
        let g = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"g-table");
        for _ in 0..8 {
            let e = g.random_exponent(&mut rng);
            assert_eq!(g.pow_g(&e), g.pow(g.g(), &e));
        }
        // Boundary exponents, including one wider than the table.
        for e in [
            BigUint::zero(),
            BigUint::one(),
            g.q().clone(),
            g.p().clone(),
        ] {
            assert_eq!(g.pow_g(&e), g.pow(g.g(), &e), "e={e:?}");
        }
    }

    #[test]
    fn ot_delivers_chosen_branch() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-basic");
        let m0 = b"label-for-zero--";
        let m1 = b"label-for-one---";
        let r0 = run_local_ot(&group, m0, m1, false, &mut rng).expect("ot");
        assert_eq!(r0, m0);
        let r1 = run_local_ot(&group, m0, m1, true, &mut rng).expect("ot");
        assert_eq!(r1, m1);
    }

    #[test]
    fn receiver_cannot_decrypt_other_branch() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-other");
        let (sender, setup) = OtBatchSender::new(&group, &mut rng);
        let (receiver, replies) =
            OtBatchReceiver::new(&group, &setup, &[false], &mut rng).expect("reply");
        let m0 = [0u8; 16];
        let m1 = [0xFFu8; 16];
        let cts = sender.encrypt(&replies, &[(&m0, &m1)]).expect("encrypt");
        // Receiver chose branch 0; XOR-ing e1 with the derived pad for
        // branch 0 must not yield m1.
        let got = receiver.decrypt(&cts).expect("decrypt");
        assert_eq!(got, vec![m0.to_vec()]);
        // The unchosen ciphertext stays unpredictable: it differs from m1
        // under the receiver's only derivable key.
        assert_ne!(cts[0].e1, m1.to_vec());
    }

    #[test]
    fn rejects_invalid_elements() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-invalid");
        let (sender, _setup) = OtBatchSender::new(&group, &mut rng);
        let bad = OtReceiverReply {
            big_b: BigUint::one(),
        };
        assert!(sender.encrypt(&[bad], &[(&[0u8; 4], &[1u8; 4])]).is_err());

        let bad_setup = OtSenderSetup {
            big_a: group.p().clone(),
        };
        assert!(OtBatchReceiver::new(&group, &bad_setup, &[false], &mut rng).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-len");
        let (sender, setup) = OtBatchSender::new(&group, &mut rng);
        let (receiver, replies) =
            OtBatchReceiver::new(&group, &setup, &[false], &mut rng).expect("reply");
        assert!(sender.encrypt(&replies, &[(&[0u8; 4], &[1u8; 5])]).is_err());
        let uneven = OtCiphertexts {
            e0: vec![0; 4],
            e1: vec![0; 5],
        };
        assert!(receiver.decrypt(&[uneven]).is_err());
    }

    #[test]
    fn many_transfers_random_choices() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-many");
        for i in 0..20u8 {
            let m0 = vec![i; 16];
            let m1 = vec![i ^ 0xFF; 16];
            let choice = i % 3 == 0;
            let got = run_local_ot(&group, &m0, &m1, choice, &mut rng).expect("ot");
            assert_eq!(got, if choice { m1 } else { m0 });
        }
    }

    #[test]
    fn for_security_selects_group() {
        assert_eq!(DhGroup::for_security(128).p().bit_length(), 192);
        assert_eq!(DhGroup::for_security(1024).p().bit_length(), 1024);
        assert_eq!(DhGroup::for_security(2048).p().bit_length(), 2048);
    }
}
