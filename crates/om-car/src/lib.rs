//! Class association rule (CAR) mining.
//!
//! Section III-A: rules have the form `X → y` where `X` is a set of
//! conditions (attribute–value pairs over *distinct* attributes) and `y` a
//! class. Class association rule mining "generates all rules in data that
//! satisfy the user-specified minimum support and minimum confidence
//! thresholds" — solving the *completeness problem* of classifiers that
//! only keep enough rules to predict.
//!
//! The miner ([`miner`]) is an Eclat-style level-wise algorithm over
//! tid-lists, which makes *restricted mining* (Section III-B: "when longer
//! rules for some attributes or values are needed, a restricted mining can
//! be carried out") a natural special case ([`restricted`]).

pub mod item;
pub mod miner;
pub mod restricted;
pub mod rule;

pub use item::Condition;
pub use miner::{mine, MinerConfig};
pub use restricted::mine_restricted;
pub use rule::CarRule;
