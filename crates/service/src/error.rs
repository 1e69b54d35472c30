//! Service-level errors.

use crate::world::CityId;
use cp_core::CoreError;
use cp_roadnet::NodeId;

/// Why a request could not be served (or admitted).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No source could connect the OD pair.
    NoCandidates,
    /// The underlying planner pipeline failed.
    Core(CoreError),
    /// The platform's bounded ingress queue is full — admission control
    /// rejected the request. Callers should back off and resubmit.
    Busy,
    /// The request names a city no world was registered under.
    UnknownCity(CityId),
    /// An endpoint of the request is not a node of its city's road
    /// graph (its id is at least the graph's node count).
    UnknownNode {
        /// The city the request was addressed to.
        city: CityId,
        /// The first out-of-range endpoint.
        node: NodeId,
    },
    /// The platform is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's city was deregistered at runtime
    /// (`Platform::deregister_city`). Queued tickets are shed with this
    /// terminal error when the city drains; later submissions are
    /// rejected with it immediately. The city is gone — resubmitting
    /// will not help.
    CityOffboarded(CityId),
    /// The resolver panicked while serving this request. The platform
    /// worker survives (the panic is contained and the worker's resolver
    /// is rebuilt); callers may resubmit.
    ResolverPanicked,
    /// The crowd was required but entirely quota-starved: every selected
    /// worker's reservation was refused at the shared desk's
    /// `max_outstanding` cap. Only surfaced by crowd resolvers opted
    /// into strict shedding (`CrowdResolver::fail_when_starved`);
    /// otherwise starvation degrades to a machine fallback. Either way
    /// it is visible in the `crowd_starved` statistics.
    CrowdStarved {
        /// Reservations refused while serving this request.
        quota_rejections: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoCandidates => write!(f, "no candidate route connects the OD pair"),
            ServiceError::Core(e) => write!(f, "planner pipeline error: {e}"),
            ServiceError::Busy => {
                write!(f, "ingress queue full; back off and resubmit")
            }
            ServiceError::UnknownCity(city) => {
                write!(f, "no world registered under {city}")
            }
            ServiceError::UnknownNode { city, node } => {
                write!(f, "node {} is not a node of {city}", node.0)
            }
            ServiceError::ShuttingDown => {
                write!(f, "the platform is shutting down")
            }
            ServiceError::CityOffboarded(city) => {
                write!(f, "{city} was deregistered and no longer serves")
            }
            ServiceError::ResolverPanicked => {
                write!(
                    f,
                    "the resolver panicked while serving the request; resubmit"
                )
            }
            ServiceError::CrowdStarved { quota_rejections } => {
                write!(
                    f,
                    "crowd quota-starved: all {quota_rejections} worker reservations were refused; back off and resubmit"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServiceError::Busy.to_string().contains("queue full"));
        assert!(ServiceError::CrowdStarved {
            quota_rejections: 9
        }
        .to_string()
        .contains("quota-starved"));
        assert!(ServiceError::UnknownCity(CityId(9))
            .to_string()
            .contains("city#9"));
        assert!(ServiceError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(ServiceError::CityOffboarded(CityId(3))
            .to_string()
            .contains("city#3"));
        assert_eq!(
            ServiceError::UnknownNode {
                city: CityId(0),
                node: NodeId(100_000)
            }
            .to_string(),
            "node 100000 is not a node of city#0"
        );
    }

    #[test]
    fn admission_errors_are_comparable() {
        assert_eq!(ServiceError::Busy, ServiceError::Busy);
        assert_ne!(
            ServiceError::UnknownCity(CityId(1)),
            ServiceError::UnknownCity(CityId(2))
        );
    }
}
