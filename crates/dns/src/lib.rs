//! # psl-dns — DNS substrate, DMARC, and a DBOUND prototype
//!
//! The paper names two PSL consumers beyond browsers: DMARC policy
//! discovery (which needs the PSL-defined *organizational domain*, §2)
//! and the proposed alternative of advertising boundaries in the DNS
//! itself (DBOUND, conclusion / ref \[21\]). Both need a DNS; this crate
//! provides one:
//!
//! - [`zone::ZoneStore`]: authoritative in-memory zones with CNAME
//!   chasing and NXDOMAIN/NoData distinction;
//! - [`dmarc`]: RFC 7489 organizational domains and policy discovery —
//!   including the failure mode where an out-of-date list applies an
//!   unrelated operator's policy;
//! - [`dbound`]: boundary assertions published at `_bound.<suffix>` and a
//!   client that derives sites by querying them, never consulting a local
//!   list — the staleness comparison the paper's conclusion calls for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dbound;
pub mod dmarc;
pub mod record;
pub mod zone;

pub use cache::{CacheStats, CachingResolver, NEGATIVE_TTL};
pub use dbound::{publish_list, site_of, Assertion, LookupCost, NodeAssertions};
pub use dmarc::{discover, organizational_domain, DmarcRecord, Policy};
pub use record::{Record, RecordData, RecordType};
pub use zone::{Answer, ZoneStore};
