//! The characterization must fill only the BER-table knots it reads.
//!
//! This file holds a single test so that it owns its process: the knot
//! count starts at zero and nothing else runs before the characterization.

use braidio_phy::ber::{ook_knots_filled, OOK_KNOTS};
use braidio_radio::characterization::Characterization;

#[test]
fn characterization_fills_few_ook_knots() {
    assert_eq!(ook_knots_filled(), 0, "nothing has queried the table yet");
    let _ = Characterization::braidio();
    let filled = ook_knots_filled();
    // Measured: 102. An eager table would fill all 1024.
    assert!(
        (1..=128).contains(&filled),
        "characterization filled {filled} of {OOK_KNOTS} knots"
    );
}
