//! The batched Chou–Orlandi OT: one setup serves every transfer of a
//! batch, each index delivers exactly its chosen branch, and every
//! malformed element, count or index is rejected or decrypts to noise.

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{
    DhGroup, OtBatchReceiver, OtBatchSender, OtCiphertexts, OtReceiverReply, OtSenderSetup,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One process-wide instance per group, so the generator tables are
/// built once per test binary.
fn group(bits: usize) -> &'static DhGroup {
    static GROUPS: [OnceLock<DhGroup>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    match bits {
        192 => GROUPS[0].get_or_init(DhGroup::test_192),
        1024 => GROUPS[1].get_or_init(DhGroup::modp_1024),
        _ => GROUPS[2].get_or_init(DhGroup::modp_2048),
    }
}

/// Distinct 16-byte messages per (index, branch).
fn messages(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| (vec![2 * i as u8; 16], vec![2 * i as u8 + 1; 16]))
        .collect()
}

fn pairs(msgs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
    msgs.iter().map(|(a, b)| (&a[..], &b[..])).collect()
}

/// Runs a whole batch; returns what the receiver decrypted.
fn run_batch(group: &DhGroup, choices: &[bool], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = HashDrbg::from_seed_label(b"batch-ot", seed);
    let msgs = messages(choices.len());
    let (sender, setup) = OtBatchSender::new(group, &mut rng);
    let (receiver, replies) =
        OtBatchReceiver::new(group, &setup, choices, &mut rng).expect("valid setup");
    let cts = sender
        .encrypt(&replies, &pairs(&msgs))
        .expect("valid replies");
    receiver.decrypt(&cts).expect("well-formed ciphertexts")
}

fn check_chosen(group: &DhGroup, choices: &[bool], seed: u64) -> Result<(), TestCaseError> {
    let got = run_batch(group, choices, seed);
    let msgs = messages(choices.len());
    prop_assert_eq!(got.len(), choices.len());
    for (i, (&c, (m0, m1))) in choices.iter().zip(&msgs).enumerate() {
        prop_assert_eq!(&got[i], if c { m1 } else { m0 }, "index {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Lengths straddle the receiver's comb-table threshold, so both the
    // ladder and the table path run.
    #[test]
    fn test192_batches_deliver_chosen_branches(
        choices in proptest::collection::vec(any::<bool>(), 0..20),
        seed in any::<u64>(),
    ) {
        check_chosen(group(192), &choices, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn modp1024_batches_deliver_chosen_branches(
        choices in proptest::collection::vec(any::<bool>(), 1..14),
        seed in any::<u64>(),
    ) {
        check_chosen(group(1024), &choices, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn modp2048_batches_deliver_chosen_branches(
        choices in proptest::collection::vec(any::<bool>(), 1..12),
        seed in any::<u64>(),
    ) {
        check_chosen(group(2048), &choices, seed)?;
    }
}

/// Elements no transfer may accept: zero, the identity, `p` and `p + 1`.
fn bad_elements(group: &DhGroup) -> Vec<BigUint> {
    vec![
        BigUint::zero(),
        BigUint::one(),
        group.p().clone(),
        group.p() + &BigUint::one(),
    ]
}

#[test]
fn sender_rejects_a_bad_element_at_any_position() {
    let group = group(192);
    let choices = [false, true, true, false, true];
    let msgs = messages(choices.len());
    for pos in 0..choices.len() {
        for bad in bad_elements(group) {
            let mut rng = HashDrbg::from_seed_label(b"bad-b", pos as u64);
            let (sender, setup) = OtBatchSender::new(group, &mut rng);
            let (_, mut replies) =
                OtBatchReceiver::new(group, &setup, &choices, &mut rng).expect("setup");
            replies[pos] = OtReceiverReply { big_b: bad.clone() };
            assert!(
                sender.encrypt(&replies, &pairs(&msgs)).is_err(),
                "B = {bad:?} accepted at position {pos}"
            );
        }
    }
}

#[test]
fn receiver_rejects_a_bad_setup() {
    let group = group(192);
    let mut rng = HashDrbg::new(b"bad-a");
    for bad in bad_elements(group) {
        let setup = OtSenderSetup { big_a: bad.clone() };
        assert!(
            OtBatchReceiver::new(group, &setup, &[true, false], &mut rng).is_err(),
            "A = {bad:?} accepted"
        );
    }
}

#[test]
fn count_mismatches_are_rejected() {
    let group = group(192);
    let choices = [true, false, true];
    let msgs = messages(choices.len());
    let mut rng = HashDrbg::new(b"counts");

    // Sender: one reply short of the batch, and one too many.
    for delta in [-1i32, 1] {
        let (sender, setup) = OtBatchSender::new(group, &mut rng);
        let (_, mut replies) =
            OtBatchReceiver::new(group, &setup, &choices, &mut rng).expect("setup");
        if delta < 0 {
            replies.pop();
        } else {
            replies.push(replies[0].clone());
        }
        assert!(sender.encrypt(&replies, &pairs(&msgs)).is_err());
    }

    // Receiver: a ciphertext short of the batch, and one too many.
    for delta in [-1i32, 1] {
        let (sender, setup) = OtBatchSender::new(group, &mut rng);
        let (receiver, replies) =
            OtBatchReceiver::new(group, &setup, &choices, &mut rng).expect("setup");
        let mut cts = sender.encrypt(&replies, &pairs(&msgs)).expect("encrypt");
        if delta < 0 {
            cts.pop();
        } else {
            cts.push(cts[0].clone());
        }
        assert!(receiver.decrypt(&cts).is_err());
    }
}

#[test]
fn swapped_ciphertexts_do_not_yield_the_other_label() {
    // Keys bind the transfer index: moving index j's ciphertexts to
    // index i must not hand the receiver either of j's messages (nor
    // i's) — at both receiver paths (ladder and comb table).
    let group = group(192);
    for n in [2usize, 12] {
        let choices: Vec<bool> = (0..n).map(|i| i % 3 == 1).collect();
        let msgs = messages(n);
        let mut rng = HashDrbg::from_seed_label(b"swap", n as u64);
        let (sender, setup) = OtBatchSender::new(group, &mut rng);
        let (receiver, replies) =
            OtBatchReceiver::new(group, &setup, &choices, &mut rng).expect("setup");
        let mut cts: Vec<OtCiphertexts> = sender.encrypt(&replies, &pairs(&msgs)).expect("encrypt");
        cts.swap(0, 1);
        let got = receiver.decrypt(&cts).expect("shape is intact");
        for (i, j) in [(0usize, 1usize), (1, 0)] {
            for m in [&msgs[i].0, &msgs[i].1, &msgs[j].0, &msgs[j].1] {
                assert_ne!(&got[i], m, "n={n}: index {i} decrypted a real label");
            }
        }
        // Untouched indices still decrypt their chosen branch.
        for k in 2..n {
            let want = if choices[k] { &msgs[k].1 } else { &msgs[k].0 };
            assert_eq!(&got[k], want);
        }
    }
}

#[test]
fn group_clones_share_tables_built_after_the_clone() {
    let original = DhGroup::test_192();
    let clone = original.clone();
    // Built through the clone, visible through the original.
    assert!(std::ptr::eq(clone.g_table(), original.g_table()));
}
