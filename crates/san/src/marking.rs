//! Markings: token assignments to places.

use std::fmt;

use crate::model::PlaceId;

/// A marking assigns a token count to every place of a
/// [`SanModel`](crate::SanModel).
///
/// Markings are the states of the underlying stochastic process; they are
/// hashable so the reachability generator can index them.
///
/// # Example
///
/// ```
/// use san::{Marking, SanModel};
///
/// let mut m = SanModel::new("demo");
/// let p = m.add_place("p", 2);
/// let marking = m.initial_marking();
/// assert_eq!(marking.tokens(p), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking {
    tokens: Vec<u32>,
}

impl Marking {
    /// Creates a marking from raw token counts (one entry per place, in
    /// place-creation order).
    pub fn from_tokens(tokens: Vec<u32>) -> Self {
        Marking { tokens }
    }

    /// Number of places covered by this marking.
    pub fn n_places(&self) -> usize {
        self.tokens.len()
    }

    /// Token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to the model this marking was
    /// created for.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.tokens[place.index()]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn set_tokens(&mut self, place: PlaceId, count: u32) {
        self.tokens[place.index()] = count;
    }

    /// Adds `count` tokens to `place`, saturating at `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn add_tokens(&mut self, place: PlaceId, count: u32) {
        let t = &mut self.tokens[place.index()];
        *t = t.saturating_add(count);
    }

    /// Removes `count` tokens from `place`.
    ///
    /// Returns `false` (and leaves the marking unchanged) when fewer than
    /// `count` tokens are present.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn remove_tokens(&mut self, place: PlaceId, count: u32) -> bool {
        let t = &mut self.tokens[place.index()];
        if *t >= count {
            *t -= count;
            true
        } else {
            false
        }
    }

    /// Raw token vector, indexed by place-creation order.
    pub fn as_slice(&self) -> &[u32] {
        &self.tokens
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Marking::from_tokens(vec![0, 1, 2]);
        assert_eq!(m.tokens(pid(2)), 2);
        m.set_tokens(pid(0), 7);
        assert_eq!(m.tokens(pid(0)), 7);
        assert_eq!(m.n_places(), 3);
        assert_eq!(m.as_slice().iter().sum::<u32>(), 10);
    }

    #[test]
    fn add_saturates() {
        let mut m = Marking::from_tokens(vec![u32::MAX - 1]);
        m.add_tokens(pid(0), 5);
        assert_eq!(m.tokens(pid(0)), u32::MAX);
    }

    #[test]
    fn remove_fails_gracefully() {
        let mut m = Marking::from_tokens(vec![1]);
        assert!(!m.remove_tokens(pid(0), 2));
        assert_eq!(m.tokens(pid(0)), 1);
        assert!(m.remove_tokens(pid(0), 1));
        assert_eq!(m.tokens(pid(0)), 0);
    }

    #[test]
    fn display_lists_tokens() {
        let m = Marking::from_tokens(vec![1, 0, 3]);
        assert_eq!(m.to_string(), "(1, 0, 3)");
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let a = Marking::from_tokens(vec![1, 2]);
        let b = Marking::from_tokens(vec![1, 2]);
        let c = Marking::from_tokens(vec![2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
