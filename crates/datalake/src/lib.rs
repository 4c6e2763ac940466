//! Data-lake substrate for Thetis semantic table search.
//!
//! A data lake `D = {T1, ..., Tn}` is a set of tables with no cross-table
//! referential constraints. A *semantic* data lake additionally carries a
//! partial mapping `Φ` from cell values to entities of a reference knowledge
//! graph (Definition 2.1 of the paper). This crate provides:
//!
//! * table and cell representations ([`Table`], [`CellValue`]),
//! * the lake container with entity→table postings ([`DataLake`]),
//!   mutable in place via delta updates and readable through epoch-pinned
//!   snapshots ([`epoch::EpochLake`]),
//! * entity linkers implementing `Φ` ([`linking`]): exact label match, a
//!   token-based "Lucene-like" matcher (used by the paper for GitTables),
//!   and a noise-injecting wrapper simulating imperfect linkers (§7.5),
//! * CSV I/O and corpus statistics reproducing Table 2 of the paper.

pub mod csv;
pub mod digest;
pub mod epoch;
pub mod lake;
pub mod linking;
pub mod stats;
pub mod table;
pub mod value;
pub mod wal;

pub use digest::{ColumnDigest, TableDigest};
pub use epoch::{EpochLake, Mutation};
pub use lake::{DataLake, LakeEpoch};
pub use linking::{EntityLinker, ExactLabelLinker, LinkStats, NoisyLinker, TokenLinker};
pub use stats::LakeStats;
pub use table::{Table, TableId};
pub use value::CellValue;
pub use wal::{
    apply_replay, checkpoint_epoch, read_checkpoint, write_checkpoint, ReplayOutcome, Wal,
    WalRecord, WalReplay,
};
