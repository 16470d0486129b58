//! # psl-core — a Public Suffix List engine
//!
//! This crate is the foundation of the reproduction of *"A First Look at the
//! Privacy Harms of the Public Suffix List"* (IMC 2023). It implements, from
//! scratch, everything an application needs to consume the PSL:
//!
//! - [`DomainName`]: validated, canonicalised (lowercase / punycode) domain
//!   names, with label arithmetic;
//! - [`punycode`]: RFC 3492 bootstring encoding/decoding;
//! - [`Rule`] / [`parser`]: the `.dat` file format, with ICANN / PRIVATE
//!   sections, wildcard (`*.`) and exception (`!`) rules;
//! - [`List`]: the prevailing-rule matching algorithm from
//!   <https://publicsuffix.org/list/>, with eTLD and eTLD+1 (registrable
//!   domain) extraction and site grouping. Every lookup runs one walk
//!   ([`frozen`]) over a compiled arena: owned ([`FrozenList`], also what a
//!   compiled snapshot loads into, see [`snapfile`]), or one version of a
//!   history's [`VersionedList`], which holds every version in one arena;
//!   [`trie::disposition_linear`] reads the algorithm literally and is the
//!   oracle the walk is checked against;
//! - [`cookie`]: RFC 6265 cookie domain-matching with supercookie
//!   rejection — the privacy decision the paper's harm model quantifies;
//! - [`Url`]: the minimal URL parsing the crawl pipeline needs;
//! - [`Date`]: a dependency-free civil date type (list ages are measured in
//!   days relative to an explicit observation date).
//!
//! ## Quick example
//!
//! ```
//! use psl_core::{DomainName, List, MatchOpts};
//!
//! let list = List::parse("com\nco.uk\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n");
//! let opts = MatchOpts::default();
//!
//! let host = DomainName::parse("alice.github.io").unwrap();
//! assert_eq!(list.public_suffix(&host, opts), Some("github.io"));
//! assert_eq!(list.registrable_domain(&host, opts).unwrap().as_str(),
//!            "alice.github.io");
//!
//! let a = DomainName::parse("maps.google.com").unwrap();
//! let b = DomainName::parse("www.google.com").unwrap();
//! assert!(list.same_site(&a, &b, opts));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cookie;
pub mod date;
pub mod domain;
pub mod embedded;
pub mod error;
pub mod frozen;
pub mod jar;
pub mod lint;
pub mod list;
pub mod parser;
pub mod punycode;
pub mod rule;
pub mod snapfile;
pub mod snapshot;
pub mod trie;
pub mod url;

pub use date::Date;
pub use domain::DomainName;
pub use embedded::{embedded_list, MINI_PSL_DAT};
pub use error::{Error, Result};
pub use frozen::{
    At, FnvBuild, FnvHasher, FrozenList, LabelInterner, VersionedList, UNKNOWN_LABEL,
};
pub use jar::{Cookie, CookieJar, SetCookie, StoreError, StoredCookie};
pub use lint::{lint, Finding};
pub use list::List;
pub use parser::{parse_dat, parse_dat_strict, write_dat, ParsedList};
pub use rule::{Rule, RuleKind, Section};
pub use snapfile::{
    checksum64, reseal, write_list_snapshot, SnapshotError, SnapshotView, LIST_FORMAT_VERSION,
    LIST_MAGIC,
};
pub use snapshot::{Snapshot, SnapshotReader, SnapshotStore};
pub use trie::{Disposition, MatchKind, MatchOpts};
pub use url::{Host, Url};
