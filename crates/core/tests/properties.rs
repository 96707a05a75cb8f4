//! Property-based tests for SLINFER's memory subsystem: Eq. 2 never
//! shrinks as an instance admits requests, and never drops under its
//! `L_min` floor.

use proptest::prelude::*;

use engine::request::RunningRequest;
use hwmodel::ModelSpec;
use simcore::time::SimTime;
use slinfer::memory::required_bytes;
use workload::request::{ModelId, Request, RequestId, SloClass};

proptest! {
    /// Eq. 2 is monotone in load and respects the L_min floor.
    #[test]
    fn kv_required_monotone(
        loads in prop::collection::vec(64u32..4096, 0..10),
        avg in 1f64..1024.0,
        lmin in 1u32..8192,
    ) {
        let c = ModelSpec::llama2_7b().kv_bytes_per_token();
        let mut live: Vec<RunningRequest> = Vec::new();
        let mut last = required_bytes(&live, None, avg, lmin, c);
        prop_assert!(last >= (lmin as u64) * c);
        for (i, &input) in loads.iter().enumerate() {
            let rr = RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: input,
                output_len: 8,
                class: SloClass::default(),
                session: Default::default(),
            });
            // Offering a candidate costs exactly what admitting it does.
            let offered = required_bytes(&live, Some(&rr), avg, lmin, c);
            live.push(rr);
            let next = required_bytes(&live, None, avg, lmin, c);
            prop_assert_eq!(offered, next);
            prop_assert!(next >= last, "Eq.2 must grow with admissions");
            last = next;
        }
    }
}
