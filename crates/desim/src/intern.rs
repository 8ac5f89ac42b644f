//! Process-name interning.
//!
//! The seed executor cloned every process name into its slot (`String` per
//! spawn) and again for every recorded wake event. Models spawn the same
//! handful of role names ("requester", "completer", "warp", ...) thousands
//! of times, so the executor now interns names once into a `Rc<str>` table
//! and stores a 4-byte id per process. The recorder-off hot path does a
//! hash lookup instead of an allocation; the table only grows by the number
//! of *distinct* names.
//!
//! The map hashes through [`tc_trace::fx`], several times faster than
//! SipHash on short strings.

use std::rc::Rc;

use tc_trace::fx::FxHashMap;

/// Interned process-name id, an index into the [`NameTable`].
pub(crate) type NameId = u32;

pub(crate) struct NameTable {
    names: Vec<Rc<str>>,
    index: FxHashMap<Rc<str>, NameId>,
}

impl NameTable {
    pub(crate) fn new() -> Self {
        NameTable {
            names: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Id for `name`, allocating it in the table on first sight only.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let rc: Rc<str> = Rc::from(name);
        let id = self.names.len() as NameId;
        self.names.push(rc.clone());
        self.index.insert(rc, id);
        id
    }

    pub(crate) fn get(&self, id: NameId) -> &Rc<str> {
        &self.names[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_repeat_names() {
        let mut t = NameTable::new();
        let a = t.intern("requester");
        let b = t.intern("completer");
        let a2 = t.intern("requester");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(&**t.get(a), "requester");
        assert_eq!(&**t.get(b), "completer");
        assert_eq!(t.names.len(), 2, "repeat interns must not grow the table");
    }
}
