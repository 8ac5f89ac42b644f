//! Payloads: runs of simulated bytes in flight between memories.

/// One piece of a [`Payload`], in address order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Run<'a> {
    /// This many zero bytes, sampled from pages nobody ever wrote.
    Zeros(usize),
    /// Bytes copied out of resident pages (or handed over by a device).
    Bytes(&'a [u8]),
}

/// A run of simulated bytes: what a bulk read samples
/// ([`crate::Bus::snapshot`]) and a bulk write lands
/// ([`crate::Bus::write_payload`]). Never-written pages travel as zero
/// runs, so moving them costs no host memory and no copies; everything
/// else is owned bytes. A payload without zero runs is one allocation, as
/// a flat buffer would be.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    len: usize,
    /// Every byte outside the zero runs, in order.
    bytes: Vec<u8>,
    /// Zero runs as `(offset, length)`: ascending, none touching the next.
    zeros: Vec<(usize, usize)>,
}

impl Payload {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs, in address order; adjacent runs differ in kind.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run<'_>> {
        let (mut at, mut taken) = (0, 0);
        let mut zeros = self.zeros.iter().peekable();
        std::iter::from_fn(move || match zeros.peek() {
            Some(&&(off, n)) if off == at => {
                zeros.next();
                at += n;
                Some(Run::Zeros(n))
            }
            _ if at == self.len => None,
            next => {
                let end = next.map_or(self.len, |z| z.0);
                let bytes = &self.bytes[taken..taken + (end - at)];
                (taken, at) = (taken + bytes.len(), end);
                Some(Run::Bytes(bytes))
            }
        })
    }

    /// The payload as one flat byte vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for run in self.runs() {
            match run {
                Run::Zeros(n) => v.resize(v.len() + n, 0),
                Run::Bytes(b) => v.extend_from_slice(b),
            }
        }
        v
    }

    /// Append `n` zero bytes.
    pub(crate) fn push_zeros(&mut self, n: usize) {
        match self.zeros.last_mut() {
            Some((off, z)) if *off + *z == self.len => *z += n,
            _ => self.zeros.push((self.len, n)),
        }
        self.len += n;
    }

    /// Append a copy of `bytes`.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.len += bytes.len();
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload {
            len: bytes.len(),
            bytes,
            zeros: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_runs_of_one_kind_merge() {
        let mut p = Payload::default();
        p.push_zeros(3);
        p.push_zeros(2);
        p.push_bytes(&[1, 2]);
        p.push_bytes(&[3]);
        p.push_zeros(1);
        assert_eq!(p.len(), 9);
        assert_eq!(
            p.runs().collect::<Vec<_>>(),
            [Run::Zeros(5), Run::Bytes(&[1, 2, 3]), Run::Zeros(1)]
        );
        assert_eq!(p.to_vec(), [0, 0, 0, 0, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn bytes_convert_to_one_run() {
        let p = Payload::from(vec![7u8, 8]);
        assert_eq!(p.runs().collect::<Vec<_>>(), [Run::Bytes(&[7, 8])]);
        assert_eq!(Payload::default().runs().count(), 0);
    }
}
