//! `diffd` — a fault-hardened network front end for the compressed-domain
//! diff pipeline.
//!
//! The paper's systolic XOR operates on run-length-encoded rows; this
//! crate puts that pipeline behind a TCP socket **without decompressing at
//! the boundary**: clients send `rle::serialize` images inside
//! length-prefixed frames, the server diffs them on one shared
//! [`systolic_core::DiffExecutor`], and the difference comes back in the
//! same compressed encoding.
//!
//! The design is failure-first — see [`server`] for the admission-control,
//! deadline, slowloris and drain policies, and [`proto`] for the hardened
//! frame format. Everything is `std` only (`TcpListener` + threads), no
//! external dependencies.
//!
//! # Quick embedding
//!
//! ```no_run
//! use diffd::{DiffClient, DiffServer, DiffServerConfig};
//!
//! let server = DiffServer::bind("127.0.0.1:0", DiffServerConfig::default())?;
//! let addr = server.local_addr();
//! let (handle, join) = server.spawn();
//!
//! let mut client = DiffClient::connect(addr)?;
//! # let (a, b) = (rle::RleImage::new(8, 1), rle::RleImage::new(8, 1));
//! let reply = client.diff(&a, &b, 0).unwrap();
//! assert_eq!(reply.image.height(), a.height());
//!
//! handle.shutdown();
//! join.join().unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{ClientError, DiffClient, RetryPolicy};
pub use metrics::ServerMetrics;
pub use proto::{DiffReply, DiffRequest, ErrorCode, ErrorReply, FrameKind, ProtoError};
pub use server::{DiffServer, DiffServerConfig, DrainReport, ServerHandle};
