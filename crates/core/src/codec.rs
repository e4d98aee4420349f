//! Fixed-width wire encoding of the protocols' Paillier ciphertexts.
//!
//! A ciphertext under `pk` is written as exactly `⌈bits(n²)/8⌉` bytes,
//! so a message's size depends on the key and never on the value, and
//! it is read back only if it lies in `Z*_{n²}`.

use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_net::wire::{WireReader, WireWriter};

use crate::error::PemError;

/// Appends `ct` at the fixed width of `pk`'s ciphertext space.
pub(crate) fn put_ct(w: &mut WireWriter, pk: &PublicKey, ct: &Ciphertext) -> Result<(), PemError> {
    Ok(w.put_biguint_fixed(ct.as_biguint(), pk.n_squared())?)
}

/// Reads a ciphertext under `pk`, rejecting anything outside `Z*_{n²}`.
pub(crate) fn get_ct(r: &mut WireReader<'_>, pk: &PublicKey) -> Result<Ciphertext, PemError> {
    let ct = Ciphertext::from_biguint(r.get_biguint_fixed(pk.n_squared())?);
    pk.validate_ciphertext(&ct)?;
    Ok(ct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_bignum::BigUint;
    use pem_crypto::drbg::HashDrbg;
    use pem_crypto::paillier::Keypair;

    #[test]
    fn ciphertexts_are_fixed_width_and_range_checked() {
        let mut rng = HashDrbg::new(b"codec");
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let width = pk.n_squared().bit_length().div_ceil(8);
        for m in [0u64, 1, 1 << 40] {
            let ct = pk.encrypt(&BigUint::from(m), &mut rng);
            let mut w = WireWriter::new();
            put_ct(&mut w, pk, &ct).expect("in range");
            let bytes = w.finish();
            assert_eq!(bytes.len(), width);
            assert_eq!(get_ct(&mut WireReader::new(&bytes), pk).expect("valid"), ct);
        }
        // Zero, n² and the all-ones pattern never decode.
        for bad in [BigUint::zero(), pk.n_squared().clone()] {
            let bytes = bad.to_bytes_be_padded(width);
            assert!(get_ct(&mut WireReader::new(&bytes), pk).is_err());
        }
        assert!(get_ct(&mut WireReader::new(&vec![0xFF; width]), pk).is_err());
    }
}
