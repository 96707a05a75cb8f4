//! SLINFER configuration knobs.

use serde::{Deserialize, Serialize};

/// Tunables of the SLINFER scheme, with the paper's defaults.
///
/// The three `enable_*` switches drive the §IX-C ablation: disabling
/// `cpu` forbids CPU nodes, disabling `sharing` gives every instance an
/// exclusive node, and disabling `consolidation` turns off both proactive
/// preemption and reactive bin-packed routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlinferConfig {
    /// KV-cache scaling watermark `w` (§VII-B); 25% by default.
    pub watermark: f64,
    /// Shadow-validation overestimation factor (§VI-C); 1.10 by default.
    pub overestimate: f64,
    /// Serve on AMX CPU nodes when they can meet the SLO.
    pub enable_cpu: bool,
    /// Co-locate multiple instances per node.
    pub enable_sharing: bool,
    /// Proactive preemption + reactive bin-packing (§VIII).
    pub enable_consolidation: bool,
    /// Prefill–decode disaggregation (§IX-G, Table III): dedicated prefill
    /// instances hand requests to decode instances over the network. Off by
    /// default — the paper shows it wastes resources in serverless settings.
    pub pd_disaggregate: bool,
}

impl Default for SlinferConfig {
    fn default() -> Self {
        SlinferConfig {
            watermark: 0.25,
            overestimate: 1.10,
            enable_cpu: true,
            enable_sharing: true,
            enable_consolidation: true,
            pd_disaggregate: false,
        }
    }
}

impl SlinferConfig {
    /// The §IX-C ablation variants, in the paper's order:
    /// full, w/o CPU, w/o consolidation, w/o sharing.
    pub fn ablations() -> Vec<(&'static str, SlinferConfig)> {
        let full = SlinferConfig::default();
        vec![
            ("SLINFER-Full", full.clone()),
            (
                "w/o CPU",
                SlinferConfig {
                    enable_cpu: false,
                    ..full.clone()
                },
            ),
            (
                "w/o Consolidation",
                SlinferConfig {
                    enable_consolidation: false,
                    ..full.clone()
                },
            ),
            (
                "w/o Sharing",
                SlinferConfig {
                    enable_sharing: false,
                    ..full
                },
            ),
        ]
    }

    /// Sets the watermark (Fig. 31 sensitivity sweep).
    pub fn with_watermark(mut self, w: f64) -> Self {
        self.watermark = w;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=4.0).contains(&self.watermark) {
            return Err(format!("watermark {} out of [0,4]", self.watermark));
        }
        if self.overestimate < 1.0 {
            return Err(format!("overestimate {} must be >= 1", self.overestimate));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SlinferConfig::default();
        assert_eq!(c.watermark, 0.25);
        assert_eq!(c.overestimate, 1.10);
        assert!(c.enable_cpu && c.enable_sharing && c.enable_consolidation);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablations_flip_one_switch_each() {
        let abl = SlinferConfig::ablations();
        assert_eq!(abl.len(), 4);
        assert!(!abl[1].1.enable_cpu && abl[1].1.enable_sharing);
        assert!(!abl[2].1.enable_consolidation && abl[2].1.enable_cpu);
        assert!(!abl[3].1.enable_sharing && abl[3].1.enable_consolidation);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(SlinferConfig::default()
            .with_watermark(-0.1)
            .validate()
            .is_err());
        let c = SlinferConfig {
            overestimate: 0.9,
            ..SlinferConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
