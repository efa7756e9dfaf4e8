//! Workload definitions and the transaction generator.
//!
//! The stream is a pure function of the seed, as in `semcc serve
//! --bench`: transaction index `i` draws its type from one RNG stream
//! and its bindings from another, both seeded by `(seed, i)`. The
//! generator runs before the latency clock starts.
//!
//! Order-processing bindings need committed state (an existing customer,
//! a delivery date up to `maximum_date`). Instead of scanning the `cust`
//! table once per transaction, each worker's generator keeps the
//! customers and the `maximum_date` it saw committed: it reads them once
//! before the measured phase and then learns from its own commits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_engine::{Engine, Value};
use semcc_serve::{workload, Mix};
use semcc_txn::{Bindings, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// One benchmark workload: a traffic mix at a fixed size and client count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Transaction types submitted.
    pub mix: Mix,
    /// Closed-loop clients, one thread each.
    pub workers: usize,
    /// `workload::setup` scale (accounts, delivery days, employees).
    pub scale: usize,
}

/// The benchmark's workloads. `mixed` is not in `BENCHMARK.json`: its
/// p99 is bimodal on a 2-vCPU VM. `banking` runs one client because with
/// two, its p99 followed the VM's scheduling of their hand-offs on the
/// commit path (README.md, "Hazards").
pub const WORKLOADS: [Workload; 3] = [
    Workload { name: "banking", mix: Mix::Banking, workers: 1, scale: 1024 },
    Workload { name: "orders", mix: Mix::Orders, workers: 1, scale: 8 },
    Workload { name: "mixed", mix: Mix::Mixed, workers: 2, scale: 8 },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// The same mixing function `semcc serve --bench` uses to derive a
/// transaction's RNG seeds from `(seed, index, stream)`.
fn item_seed(seed: u64, i: u64, stream: u64) -> u64 {
    let mut z =
        seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-worker generator.
pub struct Generator<'a> {
    seed: u64,
    scale: usize,
    engine: &'a Arc<Engine>,
    programs: &'a [&'a Program],
    /// Customers known to be committed, in the order they were seen.
    customers: Vec<String>,
    /// Latest `maximum_date` known to be committed.
    max_date: i64,
}

impl<'a> Generator<'a> {
    /// A generator over `programs` (indexed like the type pick). Reads
    /// the order-processing state once, if the mix has it.
    pub fn new(
        seed: u64,
        scale: usize,
        engine: &'a Arc<Engine>,
        programs: &'a [&'a Program],
    ) -> Self {
        let customers = engine
            .peek_table("cust")
            .map(|rows| rows.iter().filter_map(|(_, r)| r[0].as_str().map(String::from)).collect())
            .unwrap_or_default();
        let max_date =
            engine.peek_item("maximum_date").ok().and_then(|v| v.as_int()).unwrap_or(1).max(1);
        Generator { seed, scale, engine, programs, customers, max_date }
    }

    /// Type index and bindings of transaction `i`.
    pub fn next(&mut self, i: u64) -> (usize, Bindings) {
        let mut pick = StdRng::seed_from_u64(item_seed(self.seed, i, 0));
        let t = pick.gen_range(0..self.programs.len());
        let mut rng = StdRng::seed_from_u64(item_seed(self.seed, i, 1));
        let program = self.programs[t];
        let b = match program.name.as_str() {
            "New_Order" => {
                // 80% an existing customer, 20% a new one (unique per index).
                let customer = if rng.gen_range(0..5) > 0 && !self.customers.is_empty() {
                    self.customers[rng.gen_range(0..self.customers.len())].clone()
                } else {
                    format!("newcust{i}")
                };
                Bindings::new()
                    .set("address", format!("addr_of_{customer}"))
                    .set("customer", customer)
                    .set("info", rng.gen_range(10_000..100_000_000) as i64)
            }
            "Delivery" => Bindings::new().set("today", rng.gen_range(1..=self.max_date)),
            "Audit" => {
                let customer = if self.customers.is_empty() {
                    "cust1".to_string()
                } else {
                    self.customers[rng.gen_range(0..self.customers.len())].clone()
                };
                Bindings::new().set("customer", customer)
            }
            "Mailing_List" | "Mailing_List_strict" => Bindings::new(),
            _ => workload::bindings_for(self.engine, program, self.scale, &mut rng),
        };
        (t, b)
    }

    /// Learn from a committed transaction: a New_Order that found no
    /// orders for its customer inserted that customer, and it raised
    /// `maximum_date` to at least its read value plus one.
    pub fn observe_commit(&mut self, t: usize, b: &Bindings, locals: &HashMap<String, Value>) {
        if self.programs[t].name != "New_Order" {
            return;
        }
        if let Some(maxdate) = locals.get("maxdate").and_then(Value::as_int) {
            self.max_date = self.max_date.max(maxdate + 1);
        }
        let inserted = locals.get("custcount").and_then(Value::as_int) == Some(0);
        if let (true, Some(Value::Str(c))) = (inserted, b.get("customer")) {
            self.customers.push(c.clone());
        }
    }
}
