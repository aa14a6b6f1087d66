//! CSMA/DDCR protocol parameters.

use crate::error::DdcrError;
use ddcr_sim::Ticks;
use ddcr_tree::TreeShape;
use serde::{Deserialize, Serialize};

/// Gigabit-Ethernet-style packet bursting (§5): after acquiring the channel
/// a source may keep transmitting EDF-ranked queued messages back to back,
/// up to a byte budget, signalling continuation in the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Total Data-Link bits a burst may carry beyond the first frame
    /// (the 802.3z limit is 512 bytes = 4096 bits).
    pub max_extra_bits: u64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            max_extra_bits: 512 * 8,
        }
    }
}

/// Complete parameterisation of CSMA/DDCR (§3.2).
///
/// # Examples
///
/// ```
/// use ddcr_core::DdcrConfig;
/// use ddcr_sim::Ticks;
///
/// # fn main() -> Result<(), ddcr_core::DdcrError> {
/// // 8 sources, 64-leaf quaternary time tree, 100 µs deadline classes.
/// let config = DdcrConfig::for_sources(8, Ticks(100_000))?;
/// assert_eq!(config.time_tree.leaves(), 64);
/// assert!(config.static_tree.leaves() >= 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdcrConfig {
    /// Shape of the time tree: `F` leaves (deadline equivalence classes),
    /// branching degree `m`. The scheduling horizon is `c·F`.
    pub time_tree: TreeShape,
    /// Shape of the static tree: `q ≥ z` leaves over the source indices.
    pub static_tree: TreeShape,
    /// Width `c` of one deadline equivalence class.
    pub class_width: Ticks,
    /// The tunable `α` letting messages enter a time tree search "before it
    /// is too late" (a static tree search may outlast `c`).
    pub alpha: Ticks,
    /// Compressed-time increment: when a time tree search ends empty,
    /// `reft += θ(c)` with `θ(c) = theta_numerator · c`. Zero disables the
    /// compressed-time mode.
    pub theta_numerator: u64,
    /// Optional packet bursting (§5). `None` disables bursting.
    pub bursting: Option<BurstConfig>,
}

impl DdcrConfig {
    /// A reasonable default deployment for `z` sources: quaternary 64-leaf
    /// time tree, the smallest quaternary static tree with at least `z`
    /// leaves, class width `c`, `α = c`, compressed time off, no bursting.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] if `z` is zero or `c` is zero.
    pub fn for_sources(z: u32, class_width: Ticks) -> Result<Self, DdcrError> {
        if z == 0 {
            return Err(DdcrError::InvalidConfig(
                "at least one source is required".into(),
            ));
        }
        if class_width == Ticks::ZERO {
            return Err(DdcrError::InvalidConfig(
                "deadline class width c must be positive".into(),
            ));
        }
        let mut n = 1u32;
        while 4u64.pow(n) < u64::from(z) {
            n += 1;
        }
        let static_tree = TreeShape::new(4, n).map_err(DdcrError::Tree)?;
        Ok(DdcrConfig {
            time_tree: TreeShape::new(4, 3).map_err(DdcrError::Tree)?,
            static_tree,
            class_width,
            alpha: class_width,
            theta_numerator: 0,
            bursting: None,
        })
    }

    /// Sets the time tree shape.
    pub fn with_time_tree(mut self, shape: TreeShape) -> Self {
        self.time_tree = shape;
        self
    }

    /// Sets the static tree shape.
    pub fn with_static_tree(mut self, shape: TreeShape) -> Self {
        self.static_tree = shape;
        self
    }

    /// Enables compressed time with `θ(c) = numerator · c`.
    pub fn with_compressed_time(mut self, numerator: u64) -> Self {
        self.theta_numerator = numerator;
        self
    }

    /// Enables packet bursting.
    pub fn with_bursting(mut self, burst: BurstConfig) -> Self {
        self.bursting = Some(burst);
        self
    }

    /// Sets `α`.
    pub fn with_alpha(mut self, alpha: Ticks) -> Self {
        self.alpha = alpha;
        self
    }

    /// The compressed-time increment `θ(c)`.
    pub fn theta(&self) -> Ticks {
        Ticks(self.theta_numerator * self.class_width.as_u64())
    }

    /// The scheduling horizon `c·F`.
    pub fn horizon(&self) -> Ticks {
        Ticks(self.class_width.as_u64() * self.time_tree.leaves())
    }

    /// Validates the configuration against a source count.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] when the static tree has fewer
    /// leaves than sources or `c` is zero.
    pub fn validate(&self, sources: u32) -> Result<(), DdcrError> {
        if self.class_width == Ticks::ZERO {
            return Err(DdcrError::InvalidConfig(
                "deadline class width c must be positive".into(),
            ));
        }
        if self.static_tree.leaves() < u64::from(sources) {
            return Err(DdcrError::InvalidConfig(format!(
                "static tree has {} leaves but there are {} sources (q ≥ z required)",
                self.static_tree.leaves(),
                sources
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_sources_picks_smallest_static_tree() {
        let c = Ticks(100_000);
        assert_eq!(
            DdcrConfig::for_sources(3, c).unwrap().static_tree.leaves(),
            4
        );
        assert_eq!(
            DdcrConfig::for_sources(4, c).unwrap().static_tree.leaves(),
            4
        );
        assert_eq!(
            DdcrConfig::for_sources(5, c).unwrap().static_tree.leaves(),
            16
        );
        assert_eq!(
            DdcrConfig::for_sources(64, c).unwrap().static_tree.leaves(),
            64
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(DdcrConfig::for_sources(0, Ticks(1)).is_err());
        assert!(DdcrConfig::for_sources(4, Ticks::ZERO).is_err());
    }

    #[test]
    fn horizon_is_c_times_f() {
        let cfg = DdcrConfig::for_sources(4, Ticks(1000)).unwrap();
        assert_eq!(cfg.horizon(), Ticks(64_000));
    }

    #[test]
    fn theta_scales_with_c() {
        let cfg = DdcrConfig::for_sources(4, Ticks(1000))
            .unwrap()
            .with_compressed_time(3);
        assert_eq!(cfg.theta(), Ticks(3000));
        let off = DdcrConfig::for_sources(4, Ticks(1000)).unwrap();
        assert_eq!(off.theta(), Ticks::ZERO);
    }

    #[test]
    fn validate_checks_q_at_least_z() {
        let cfg = DdcrConfig::for_sources(4, Ticks(1000)).unwrap();
        assert!(cfg.validate(4).is_ok());
        assert!(cfg.validate(5).is_err());
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = DdcrConfig::for_sources(4, Ticks(1000))
            .unwrap()
            .with_alpha(Ticks(500))
            .with_bursting(BurstConfig::default())
            .with_time_tree(ddcr_tree::TreeShape::new(2, 6).unwrap());
        assert_eq!(cfg.alpha, Ticks(500));
        assert!(cfg.bursting.is_some());
        assert_eq!(cfg.time_tree.branching(), 2);
    }
}
