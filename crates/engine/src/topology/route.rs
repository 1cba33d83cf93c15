//! Routes: how one operator's outputs become another operator's events, and
//! the type-erased form the round cores apply.

use std::any::Any;
use std::sync::Arc;

#[cfg(doc)]
use super::{OperatorHandle, TopologyBuilder};

/// The transformation half of a [`Route`]: expands one upstream output into
/// downstream events.
type ExpandFn<O, E2> = Box<dyn Fn(&O, &mut Vec<E2>) + Send>;
/// The partition-key half of a [`Route::keyed`] route.
type KeyFn<E2> = Arc<dyn Fn(&E2) -> u64 + Send + Sync>;

/// How one operator's outputs become another operator's events.
///
/// A `Route` is attached to an edge with [`TopologyBuilder::connect`]. The
/// plain constructors ([`Route::map`], [`Route::filter_map`],
/// [`Route::fan_out`]) transform each upstream output into zero or more
/// downstream events; [`Route::keyed`] additionally names the partition key
/// used to spread the routed events across the parallel instances of the
/// downstream operator (see [`OperatorHandle::with_parallelism`]).
pub struct Route<O, E2> {
    expand: ExpandFn<O, E2>,
    key: Option<KeyFn<E2>>,
}

impl<O: 'static, E2: Send + 'static> Route<O, E2> {
    /// Turn every upstream output into exactly one downstream event.
    #[must_use = "a Route does nothing until attached with TopologyBuilder::connect"]
    pub fn map(f: impl Fn(&O) -> E2 + Send + 'static) -> Self {
        Self {
            expand: Box::new(move |output, into| into.push(f(output))),
            key: None,
        }
    }

    /// Turn every upstream output into zero or one downstream events.
    #[must_use = "a Route does nothing until attached with TopologyBuilder::connect"]
    pub fn filter_map(f: impl Fn(&O) -> Option<E2> + Send + 'static) -> Self {
        Self {
            expand: Box::new(move |output, into| into.extend(f(output))),
            key: None,
        }
    }

    /// Fan every upstream output out into any number of downstream events.
    #[must_use = "a Route does nothing until attached with TopologyBuilder::connect"]
    pub fn fan_out<I>(f: impl Fn(&O) -> I + Send + 'static) -> Self
    where
        I: IntoIterator<Item = E2>,
    {
        Self {
            expand: Box::new(move |output, into| into.extend(f(output))),
            key: None,
        }
    }

    /// Like [`Route::fan_out`], but the routed events carry a partition key:
    /// when the downstream operator runs `n` parallel instances, each event
    /// goes to the instance owning `hash(key_fn(event)) % n`, so all events
    /// with one key — and therefore all updates to the state that key guards
    /// — stay on one instance, in arrival order. Key by the downstream
    /// operator's *state* key (the table key its transactions write), not by
    /// an arbitrary attribute, so instances own disjoint state partitions.
    #[must_use = "a Route does nothing until attached with TopologyBuilder::connect"]
    pub fn keyed<I>(
        key_fn: impl Fn(&E2) -> u64 + Send + Sync + 'static,
        f: impl Fn(&O) -> I + Send + 'static,
    ) -> Self
    where
        I: IntoIterator<Item = E2>,
    {
        Self {
            expand: Box::new(move |output, into| into.extend(f(output))),
            key: Some(Arc::new(key_fn)),
        }
    }

    /// Whether this route carries a partition key (required by edges into
    /// parallel operators).
    pub fn is_keyed(&self) -> bool {
        self.key.is_some()
    }
}

/// Deterministic partition assignment for keyed routes.
pub(super) fn partition_of(key: u64, parts: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % parts
}

/// One punctuation's worth of routed events, already split across the
/// destination operator's instances. `positions[i][j]` is the index the
/// `j`-th event of part `i` had in the round's canonical order, so the
/// destination's outputs can be merged back into that order; identity parts
/// (single-instance destinations) carry an empty positions list.
pub(super) struct RoutedParts {
    pub(super) parts: Vec<Box<dyn Any + Send>>,
    pub(super) positions: Vec<Vec<usize>>,
    pub(super) total: usize,
}

/// Erased route: maps an upstream output batch (`&Vec<O>`) plus the
/// destination's instance count to the per-instance event batches.
pub(super) type ErasedRoute = Box<dyn Fn(&(dyn Any + Send), usize) -> RoutedParts + Send>;

pub(super) fn erase_route<O: Send + 'static, E2: Send + 'static>(
    route: Route<O, E2>,
) -> (bool, ErasedRoute) {
    let Route { expand, key } = route;
    let keyed = key.is_some();
    let erased = move |outputs: &(dyn Any + Send), parts_n: usize| -> RoutedParts {
        let outputs = outputs
            .downcast_ref::<Vec<O>>()
            .expect("edge source type checked by OperatorHandle");
        let mut flat: Vec<E2> = Vec::new();
        for output in outputs {
            expand(output, &mut flat);
        }
        let total = flat.len();
        if parts_n <= 1 {
            return RoutedParts {
                parts: vec![Box::new(flat)],
                positions: vec![Vec::new()],
                total,
            };
        }
        let key = key
            .as_ref()
            .expect("parallel destinations require Route::keyed (validated at build)");
        let mut parts: Vec<Vec<E2>> = (0..parts_n).map(|_| Vec::new()).collect();
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); parts_n];
        for (index, event) in flat.into_iter().enumerate() {
            let part = partition_of(key(&event), parts_n);
            parts[part].push(event);
            positions[part].push(index);
        }
        RoutedParts {
            parts: parts
                .into_iter()
                .map(|part| Box::new(part) as Box<dyn Any + Send>)
                .collect(),
            positions,
            total,
        }
    };
    (keyed, Box::new(erased))
}
