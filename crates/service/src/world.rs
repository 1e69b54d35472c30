//! Serving worlds and city identities.
//!
//! A resident multi-city platform serves each city from one owned
//! [`World`] (cp-mining's: road graph, trip history and mining state,
//! shared as an `Arc<World>` by worker threads, services and resolvers).
//! [`CityId`] names a world registered on a
//! [`Platform`](crate::Platform); requests carry it so the platform can
//! route each one to the right per-city service instance.

pub use cp_mining::World;

/// Identity of a city registered on a [`Platform`](crate::Platform).
///
/// Ids are dense registration indexes (`0, 1, 2, …` in registration
/// order). A standalone [`RouteService`](crate::RouteService) serves
/// whatever requests it is handed and never inspects the city field;
/// [`CityId::LOCAL`] is the conventional value for single-city use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u32);

impl CityId {
    /// The conventional id for single-city (platform-free) requests.
    pub const LOCAL: CityId = CityId(0);

    /// The dense registration index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "city#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_send_sync_and_static() {
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<World>();
        assert_shareable::<CityId>();
    }

    #[test]
    fn city_id_display_and_index() {
        assert_eq!(CityId(3).to_string(), "city#3");
        assert_eq!(CityId(3).index(), 3);
        assert_eq!(CityId::LOCAL, CityId(0));
    }
}
