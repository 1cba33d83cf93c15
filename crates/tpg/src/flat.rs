//! Compressed-sparse-row storage: many short lists kept in one array.

/// Lists laid end to end in one array: list `i` is
/// `items[start[i]..start[i + 1]]`. Holding a batch's adjacency this way
/// costs two allocations however many lists it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatLists<T> {
    items: Vec<T>,
    /// Where each list starts, then where the last one ends.
    start: Vec<usize>,
}

impl<T> Default for FlatLists<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            start: Vec::new(),
        }
    }
}

impl<T> FlatLists<T> {
    /// From the items and the start offsets of the lists.
    pub(crate) fn from_parts(items: Vec<T>, start: Vec<usize>) -> Self {
        debug_assert!(start.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(start.last(), Some(&items.len()));
        Self { items, start }
    }

    /// Number of lists.
    pub(crate) fn num_lists(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// List `i`.
    pub(crate) fn list(&self, i: usize) -> &[T] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

impl<T: Copy> FlatLists<T> {
    /// Lay `entries()` out as `n` lists, entry `(list, item)` going to
    /// `list`. A list keeps its items in entry order (a stable counting
    /// sort). `entries` is called twice and must yield the same sequence.
    pub(crate) fn group<I>(n: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, T)>,
    {
        let mut start = vec![0usize; n + 1];
        for (list, _) in entries() {
            start[list + 1] += 1;
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        let Some((_, fill)) = entries().next() else {
            return Self {
                items: Vec::new(),
                start,
            };
        };
        // Scatter with `start[list]` as the list's cursor; afterwards each
        // cursor sits on the next list's start, so shift them back by one.
        let mut items = vec![fill; start[n]];
        for (list, item) in entries() {
            items[start[list]] = item;
            start[list] += 1;
        }
        for i in (1..=n).rev() {
            start[i] = start[i - 1];
        }
        start[0] = 0;
        Self { items, start }
    }

    /// Concatenate `lists`, in order, with one allocation for the items and
    /// one for the offsets.
    pub(crate) fn from_lists(lists: &[Vec<T>]) -> Self {
        let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut start = Vec::with_capacity(lists.len() + 1);
        start.push(0);
        for list in lists {
            items.extend_from_slice(list);
            start.push(items.len());
        }
        Self { items, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_is_stable_and_keeps_empty_lists() {
        let entries = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let flat = FlatLists::group(4, || entries.iter().copied());
        assert_eq!(flat.num_lists(), 4);
        assert_eq!(flat.list(0), &['b', 'd']);
        assert!(flat.list(1).is_empty());
        assert_eq!(flat.list(2), &['a', 'c']);
        assert_eq!(flat.list(3), &['e']);
    }

    #[test]
    fn every_constructor_agrees_on_the_same_lists() {
        let lists = vec![vec![5, 6], vec![], vec![7]];
        let concatenated = FlatLists::from_lists(&lists);
        let grouped = FlatLists::group(3, || [(0, 5), (0, 6), (2, 7)].into_iter());
        let parts = FlatLists::from_parts(vec![5, 6, 7], vec![0, 2, 2, 3]);
        assert_eq!(concatenated, grouped);
        assert_eq!(concatenated, parts);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(concatenated.list(i), list.as_slice());
        }
    }

    #[test]
    fn no_lists_is_an_empty_layout() {
        let empty = FlatLists::<u8>::group(0, std::iter::empty);
        assert_eq!(empty.num_lists(), 0);
        assert_eq!(empty, FlatLists::from_lists(&[]));
        assert_eq!(empty, FlatLists::from_parts(vec![], vec![0]));
        assert_eq!(FlatLists::<u8>::default().num_lists(), 0);
    }
}
