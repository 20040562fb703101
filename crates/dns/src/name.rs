//! Domain names with RFC 1035 semantics.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label, in bytes (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire, in bytes, including length octets
/// and the root label (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Most labels a name can hold: every label takes at least two wire
/// bytes and a name without its root octet takes at most 254.
const MAX_LABELS: usize = MAX_NAME_LEN / 2;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`).
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] bytes.
    LabelTooLong(String),
    /// The whole name exceeded [`MAX_NAME_LEN`] wire bytes.
    NameTooLong,
    /// A label contained a byte we do not accept (whitespace, control,
    /// non-ASCII or a dot inside a label).
    BadByte(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "name exceeds 255 wire bytes"),
            NameError::BadByte(b) => write!(f, "invalid byte {b:#04x} in name"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name.
///
/// Stored as one buffer of wire-form labels — each a length octet and
/// then its bytes, lower-cased (DNS comparisons are case-insensitive per
/// RFC 4343), no root octet — kept in *right-to-left* order:
/// `www.example.com` is `\x03com\x07example\x03www`. The root name is the
/// empty buffer. Cloning, hashing and equality work on the buffer alone.
///
/// Right-to-left order makes every ancestor a prefix of the buffer, so
/// zone walks probe prefixes instead of building names, and it makes
/// `Ord` — the canonical DNS order: labels compared right to left,
/// bytewise, a proper suffix first — one forward pass over both buffers.
/// Ordered maps keyed by `Name` rely on that order, so it must not change
/// with the representation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    rev: Box<[u8]>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name {
            rev: Box::default(),
        }
    }

    /// Parse a dotted name. Accepts an optional trailing dot; `"."` and `""`
    /// both denote the root. Underscores and hyphens are accepted anywhere
    /// (measurement reality: `_dmarc`, hosts with leading digits, etc.).
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        let mut name = NameBuilder::new();
        for raw in s.split('.') {
            if raw.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if raw.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(raw.to_string()));
            }
            for &b in raw.as_bytes() {
                let ok = b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*';
                if !ok {
                    return Err(NameError::BadByte(b));
                }
            }
            name.append_label(raw.as_bytes());
        }
        name.to_name()
    }

    /// The name in right-to-left wire-form order (see [`Name`]).
    pub(crate) fn rev_wire(&self) -> &[u8] {
        &self.rev
    }

    /// The labels, left to right (`www`, `example`, `com`).
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            raw: RawLabels::of(&self.rev),
        }
    }

    /// Number of labels; 0 for the root.
    pub fn label_count(&self) -> usize {
        label_offsets(&self.rev).count()
    }

    /// Is this the root name?
    pub fn is_root(&self) -> bool {
        self.rev.is_empty()
    }

    /// Wire-format length in bytes (length octets + label bytes + root 0).
    pub fn wire_len(&self) -> usize {
        self.rev.len().saturating_add(1)
    }

    /// The buffer without its leftmost label (the parent); `None` at the
    /// root.
    fn parent_rev(&self) -> Option<&[u8]> {
        self.rev.get(..label_offsets(&self.rev).last()?)
    }

    /// The parent name (one label removed from the left); `None` at root.
    pub fn parent(&self) -> Option<Name> {
        Some(Name {
            rev: self.parent_rev()?.into(),
        })
    }

    /// Prepend `label`, returning the child name.
    pub fn child(&self, label: &str) -> Result<Name, NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.to_ascii_lowercase()));
        }
        let mut rev = Vec::with_capacity(
            self.wire_len()
                .saturating_add(label.len())
                .min(MAX_NAME_LEN),
        );
        rev.extend_from_slice(&self.rev);
        push_label(&mut rev, label.as_bytes());
        Self::from_rev(rev)
    }

    /// Join two names: `self` becomes the leftmost part (`mail` + `foo.com`
    /// = `mail.foo.com`).
    pub fn join(&self, suffix: &Name) -> Result<Name, NameError> {
        Self::from_rev([suffix.rev_wire(), self.rev_wire()].concat())
    }

    /// Wrap a right-to-left buffer, checking the total length.
    fn from_rev(rev: Vec<u8>) -> Result<Name, NameError> {
        if rev.len() >= MAX_NAME_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(Name {
            rev: rev.into_boxed_slice(),
        })
    }

    /// True if `self` equals `other` or is a descendant of it. The root is
    /// an ancestor of everything.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        is_ancestor_rev(&other.rev, &self.rev)
    }

    /// Strict-descendant test: subdomain but not equal.
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.rev.len() > other.rev.len() && self.is_subdomain_of(other)
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&str> {
        self.labels().next()
    }

    /// Replace the leftmost label with `*` (used for wildcard synthesis).
    pub fn to_wildcard(&self) -> Option<Name> {
        let star: &[u8] = &[1, b'*'];
        Self::from_rev([self.parent_rev()?, star].concat()).ok()
    }

    /// Is the leftmost label `*`?
    pub fn is_wildcard(&self) -> bool {
        self.parent_rev()
            .and_then(|p| self.rev.get(p.len()..))
            .is_some_and(|l| l == [1, b'*'])
    }

    /// The ancestors of this name as borrowed keys, from the name itself
    /// up to the root (included); reversible.
    pub(crate) fn ancestors(&self) -> Ancestors<'_> {
        Ancestors::of(&self.rev)
    }

    /// The dotted form as byte chunks — labels with `.` between them, or
    /// a lone `.` for the root — so a caller can stream it (into a hash,
    /// say) without building the `String` [`Name::to_dotted`] returns.
    pub fn dotted_chunks(&self) -> impl Iterator<Item = &[u8]> {
        let dot: &[u8] = b".";
        let labels = RawLabels::of(&self.rev)
            .enumerate()
            .flat_map(move |(i, label)| {
                (i > 0)
                    .then_some(dot)
                    .into_iter()
                    .chain(std::iter::once(label))
            });
        self.is_root().then_some(dot).into_iter().chain(labels)
    }

    /// Dotted string without trailing dot; `.` for the root.
    pub fn to_dotted(&self) -> String {
        self.to_string()
    }
}

/// A name assembled from its labels, given left to right, in a stack
/// buffer filled from the back, so the filled tail is already the
/// right-to-left layout of [`Name`]. Once the name outgrows the length
/// limit the builder stops storing, so callers can finish their own
/// validation before reporting [`NameError::NameTooLong`].
pub(crate) struct NameBuilder {
    /// The name is `buf[start..]`; it holds at most `MAX_NAME_LEN - 1`
    /// bytes (the root octet is implicit).
    buf: [u8; MAX_NAME_LEN - 1],
    start: usize,
    too_long: bool,
}

impl NameBuilder {
    /// An empty name.
    pub(crate) fn new() -> Self {
        NameBuilder {
            buf: [0; MAX_NAME_LEN - 1],
            start: MAX_NAME_LEN - 1,
            too_long: false,
        }
    }

    /// Append the next label to the right, ASCII-lower-cased.
    pub(crate) fn append_label(&mut self, label: &[u8]) {
        let from = self.start.checked_sub(label.len().saturating_add(1));
        let slot = from.and_then(|from| self.buf.get_mut(from..self.start)?.split_first_mut());
        let (Some(from), Some((first, rest)), Ok(len), false) =
            (from, slot, u8::try_from(label.len()), self.too_long)
        else {
            self.too_long = true;
            return;
        };
        *first = len;
        for (d, s) in rest.iter_mut().zip(label) {
            *d = s.to_ascii_lowercase();
        }
        self.start = from;
    }

    /// The finished name, or [`NameError::NameTooLong`].
    pub(crate) fn to_name(&self) -> Result<Name, NameError> {
        match self.buf.get(self.start..) {
            Some(rev) if !self.too_long => Ok(Name { rev: rev.into() }),
            _ => Err(NameError::NameTooLong),
        }
    }
}

/// Offset just past a label of `len` bytes whose length octet is at
/// `start`.
fn slot_end(start: usize, len: usize) -> usize {
    start.saturating_add(len).saturating_add(1)
}

/// Append one label (lower-cased) with its length octet. Callers bound
/// `label` by [`MAX_LABEL_LEN`].
fn push_label(wire: &mut Vec<u8>, label: &[u8]) {
    wire.push(u8::try_from(label.len()).unwrap_or(u8::MAX));
    wire.extend(label.iter().map(u8::to_ascii_lowercase));
}

/// Offsets of each label's length octet in a buffer of length-prefixed
/// labels.
fn label_offsets(buf: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let start = pos;
        pos = slot_end(start, usize::from(*buf.get(start)?));
        Some(start)
    })
}

/// [`label_offsets`] collected on the stack, and how many there are.
fn label_starts(buf: &[u8]) -> ([u8; MAX_LABELS], usize) {
    let mut starts = [0u8; MAX_LABELS];
    let mut n = 0;
    for (slot, start) in starts.iter_mut().zip(label_offsets(buf)) {
        *slot = u8::try_from(start).unwrap_or(u8::MAX);
        n += 1;
    }
    (starts, n)
}

/// The label bytes whose length octet sits at `start`.
fn label_at(wire: &[u8], start: usize) -> &[u8] {
    let len = wire.get(start).map_or(0, |&l| usize::from(l));
    wire.get(start.saturating_add(1)..slot_end(start, len))
        .unwrap_or_default()
}

/// Canonical DNS order over right-to-left buffers: labels right to left,
/// each compared bytewise; a proper suffix sorts first.
///
/// Both buffers agree up to their first differing byte, so they share
/// label boundaries up to it. If that byte is a length octet the two
/// labels there decide; inside a label (equal lengths, equal bytes so
/// far) the byte itself decides; with no difference, the shorter buffer
/// has fewer labels.
fn canonical_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let Some(d) = a.iter().zip(b).position(|(x, y)| x != y) else {
        return a.len().cmp(&b.len());
    };
    let at_label_start = label_offsets(a).take_while(|&s| s <= d).last() == Some(d);
    if at_label_start {
        label_at(a, d).cmp(label_at(b, d))
    } else {
        a.get(d).cmp(&b.get(d))
    }
}

/// Is the name in right-to-left buffer `anc` equal to or an ancestor of
/// the one in `rev`? Length octets make a byte prefix a label prefix: each
/// of `anc`'s length octets matches one of `rev`'s, so `anc` ends on a
/// label boundary of `rev`.
pub(crate) fn is_ancestor_rev(anc: &[u8], rev: &[u8]) -> bool {
    rev.starts_with(anc)
}

/// The labels of a right-to-left buffer as raw bytes, left to right.
#[derive(Debug, Clone)]
struct RawLabels<'a> {
    rev: &'a [u8],
    starts: [u8; MAX_LABELS],
    /// Labels not yet yielded: `starts[..left]`.
    left: usize,
}

impl<'a> RawLabels<'a> {
    fn of(rev: &'a [u8]) -> Self {
        let (starts, left) = label_starts(rev);
        RawLabels { rev, starts, left }
    }
}

impl<'a> Iterator for RawLabels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        let start = self.starts.get(self.left)?;
        Some(label_at(self.rev, usize::from(*start)))
    }
}

/// Iterator over a [`Name`]'s labels as `&str`, left to right.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    raw: RawLabels<'a>,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        // Every constructor keeps labels valid UTF-8 (parse accepts ASCII
        // only; the decoder stores lossily converted text).
        self.raw
            .next()
            .map(|l| std::str::from_utf8(l).unwrap_or_default())
    }
}

/// A name borrowed as an ordered-map key.
///
/// `Name` borrows as `dyn NameKey`, ordered exactly like `Name`, so zone
/// walks can probe a `BTreeMap<Name, _>` with an ancestor of a name (a
/// prefix of its buffer) or with a name assembled in a stack buffer,
/// without allocating.
pub(crate) trait NameKey {
    /// The right-to-left buffer (see [`Name`]).
    fn rev_key(&self) -> &[u8];
}

impl NameKey for Name {
    fn rev_key(&self) -> &[u8] {
        &self.rev
    }
}

/// A borrowed right-to-left name buffer: an ancestor of a [`Name`] or a
/// name built in a scratch buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NameRef<'a>(pub(crate) &'a [u8]);

impl NameRef<'_> {
    /// As an ordered-map key for `BTreeMap<Name, _>` lookups.
    pub(crate) fn key(&self) -> &dyn NameKey {
        self
    }
}

impl NameKey for NameRef<'_> {
    fn rev_key(&self) -> &[u8] {
        self.0
    }
}

impl<'a> std::borrow::Borrow<dyn NameKey + 'a> for Name {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rev_key() == other.rev_key()
    }
}

impl Eq for dyn NameKey + '_ {}

impl std::hash::Hash for dyn NameKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The same bytes `Name`'s derived `Hash` feeds the hasher.
        self.rev_key().hash(state);
    }
}

impl PartialOrd for dyn NameKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn NameKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        canonical_cmp(self.rev_key(), other.rev_key())
    }
}

/// The ancestors of a name — prefixes of its buffer that end on a label
/// boundary — from the name itself to the root; iterable from either end.
#[derive(Debug, Clone)]
pub(crate) struct Ancestors<'a> {
    rev: &'a [u8],
    starts: [u8; MAX_LABELS],
    /// Number of labels. Index `i < count` stands for the prefix before
    /// label `i` (index 0 is the root), index `count` for the name.
    count: usize,
    /// Next index to yield from the root end.
    low: usize,
    /// One past the next index to yield from the name end.
    high: usize,
}

impl<'a> Ancestors<'a> {
    fn of(rev: &'a [u8]) -> Self {
        let (starts, count) = label_starts(rev);
        Ancestors {
            rev,
            starts,
            count,
            low: 0,
            high: count.saturating_add(1),
        }
    }

    fn prefix(&self, idx: usize) -> NameRef<'a> {
        let end = match self.starts.get(idx) {
            Some(&s) if idx < self.count => usize::from(s),
            _ => self.rev.len(),
        };
        NameRef(self.rev.get(..end).unwrap_or_default())
    }
}

impl<'a> Iterator for Ancestors<'a> {
    type Item = NameRef<'a>;

    fn next(&mut self) -> Option<NameRef<'a>> {
        if self.low >= self.high {
            return None;
        }
        self.high -= 1;
        Some(self.prefix(self.high))
    }
}

impl<'a> DoubleEndedIterator for Ancestors<'a> {
    fn next_back(&mut self) -> Option<NameRef<'a>> {
        if self.low >= self.high {
            return None;
        }
        let p = self.prefix(self.low);
        self.low += 1;
        Some(p)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Name")
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        canonical_cmp(&self.rev, &other.rev)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Convenience: `name!("example.com")`-style construction in tests and
/// generators; panics on invalid input.
// lint:allow-next-fn(R1): literal-construction macro; panicking on a bad compile-time literal is the contract
#[macro_export]
macro_rules! dns_name {
    ($s:expr) => {
        $crate::Name::parse($s).expect("valid DNS name literal")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = Name::parse("WWW.Example.COM.").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
        assert_eq!(Name::parse(".").unwrap(), Name::root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            Name::parse(&format!("{}.com", "x".repeat(64))),
            Err(NameError::LabelTooLong(_))
        ));
        assert!(matches!(Name::parse("a b.com"), Err(NameError::BadByte(_))));
        let long = vec!["abcdefgh"; 32].join("."); // 32*9 + 1 > 255
        assert_eq!(Name::parse(&long), Err(NameError::NameTooLong));
        // Label errors anywhere take precedence over the length limit.
        assert_eq!(
            Name::parse(&format!("{long}..x")),
            Err(NameError::EmptyLabel)
        );
        assert_eq!(
            Name::parse(&format!("{long}.a b")),
            Err(NameError::BadByte(b' '))
        );
        assert!(matches!(
            Name::parse(&format!("{long}.{}", "y".repeat(64))),
            Err(NameError::LabelTooLong(_))
        ));
    }

    #[test]
    fn case_insensitive_eq() {
        assert_eq!(
            Name::parse("MX.Google.COM").unwrap(),
            Name::parse("mx.google.com").unwrap()
        );
    }

    #[test]
    fn hierarchy() {
        let n = dns_name!("mail.example.com");
        assert_eq!(n.parent().unwrap(), dns_name!("example.com"));
        assert!(n.is_subdomain_of(&dns_name!("example.com")));
        assert!(n.is_subdomain_of(&dns_name!("com")));
        assert!(n.is_subdomain_of(&Name::root()));
        assert!(n.is_subdomain_of(&n));
        assert!(!n.is_strict_subdomain_of(&n));
        assert!(!dns_name!("example.com").is_subdomain_of(&n));
        assert!(!dns_name!("badexample.com").is_subdomain_of(&dns_name!("example.com")));
    }

    #[test]
    fn child_and_join() {
        let base = dns_name!("example.com");
        assert_eq!(base.child("mx1").unwrap(), dns_name!("mx1.example.com"));
        assert_eq!(
            dns_name!("a.b").join(&dns_name!("c.d")).unwrap(),
            dns_name!("a.b.c.d")
        );
    }

    #[test]
    fn wildcards() {
        let n = dns_name!("host.example.com");
        assert_eq!(n.to_wildcard().unwrap(), dns_name!("*.example.com"));
        assert!(dns_name!("*.example.com").is_wildcard());
        assert!(!n.is_wildcard());
    }

    #[test]
    fn ordering_groups_siblings() {
        let mut v = vec![
            dns_name!("b.example.com"),
            dns_name!("example.org"),
            dns_name!("a.example.com"),
            dns_name!("example.com"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                dns_name!("example.com"),
                dns_name!("a.example.com"),
                dns_name!("b.example.com"),
                dns_name!("example.org"),
            ]
        );
    }

    #[test]
    fn stored_right_to_left() {
        let n = dns_name!("WWW.Example.com");
        assert_eq!(n.rev_wire(), b"\x03com\x07example\x03www");
        let ancestors: Vec<&[u8]> = n.ancestors().map(|a| a.0).collect();
        assert_eq!(
            ancestors,
            [
                &b"\x03com\x07example\x03www"[..],
                b"\x03com\x07example",
                b"\x03com",
                b""
            ]
        );
        assert_eq!(n.ancestors().rev().next().map(|a| a.0), Some(&b""[..]));
    }

    #[test]
    fn wire_len() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(dns_name!("com").wire_len(), 5);
        assert_eq!(dns_name!("example.com").wire_len(), 13);
    }
}
