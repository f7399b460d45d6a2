//! Typed errors for the ingestion pipeline.

use om_cube::CubeError;
use om_data::DataError;
use om_fault::FaultError;

/// Everything that can go wrong between a submitted row and a published
/// store generation.
#[derive(Debug)]
pub enum IngestError {
    /// A submitted row failed validation (unknown label, wrong field
    /// count, unparseable numeric). `row` is 1-based within the batch.
    /// The whole batch is rejected: either every row is durable or none.
    BadRow { row: usize, reason: String },
    /// The serving schema cannot accept live rows (e.g. an attribute is
    /// still continuous, or the store is lazy).
    Schema(String),
    /// Write-ahead log I/O failure.
    Io(std::io::Error),
    /// Structural WAL corruption beyond a recoverable torn tail.
    Wal(String),
    /// A sealed segment's rows did not form a dataset.
    Data(DataError),
    /// Folding a sealed segment into the store failed.
    Cube(CubeError),
    /// An injected fault (chaos tests) or tripped budget.
    Fault(FaultError),
    /// The ingestor was shut down; no more rows are accepted.
    Closed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::BadRow { row, reason } => write!(f, "bad row {row}: {reason}"),
            IngestError::Schema(msg) => write!(f, "schema: {msg}"),
            IngestError::Io(e) => write!(f, "wal io: {e}"),
            IngestError::Wal(msg) => write!(f, "wal: {msg}"),
            IngestError::Data(e) => write!(f, "segment data: {e}"),
            IngestError::Cube(e) => write!(f, "cube fold: {e}"),
            IngestError::Fault(e) => write!(f, "fault: {e}"),
            IngestError::Closed => write!(f, "ingestor is shut down"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<DataError> for IngestError {
    fn from(e: DataError) -> Self {
        IngestError::Data(e)
    }
}

impl From<CubeError> for IngestError {
    fn from(e: CubeError) -> Self {
        IngestError::Cube(e)
    }
}

impl From<FaultError> for IngestError {
    fn from(e: FaultError) -> Self {
        IngestError::Fault(e)
    }
}

impl IngestError {
    /// True for client-caused rejections (HTTP 400 territory), false for
    /// internal failures (HTTP 500 territory).
    pub fn is_bad_request(&self) -> bool {
        matches!(self, IngestError::BadRow { .. })
    }
}
