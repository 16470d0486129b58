//! Growth series: the data behind Figure 2.
//!
//! For every published version we report the total rule count and the
//! breakdown by suffix-component count (1, 2, 3, 4+), computed
//! incrementally in one sweep over rule spans.

use crate::history::History;
use psl_core::Date;
use serde::{Deserialize, Serialize};

/// One point of the growth series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrowthPoint {
    /// Version date.
    pub date: Date,
    /// Total rules live at this version.
    pub total: usize,
    /// Live rules with 1, 2, 3, and 4+ components.
    pub by_components: [usize; 4],
}

/// The full series, one point per published version.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrowthSeries {
    /// Points in version order.
    pub points: Vec<GrowthPoint>,
}

impl GrowthSeries {
    /// Compute the series for a history.
    pub fn compute(history: &History) -> Self {
        let mut counts = [0i64; 4];
        let mut points = Vec::with_capacity(history.version_count());
        history.replay_changes(|_, v, changes| {
            for (added, rule) in changes {
                counts[rule.component_count().min(4) - 1] += if added { 1 } else { -1 };
            }
            let by: [usize; 4] = [
                counts[0].max(0) as usize,
                counts[1].max(0) as usize,
                counts[2].max(0) as usize,
                counts[3].max(0) as usize,
            ];
            points.push(GrowthPoint { date: v, total: by.iter().sum(), by_components: by });
        });
        GrowthSeries { points }
    }

    /// Final component shares (fractions of the last point's total).
    pub fn final_shares(&self) -> [f64; 4] {
        let Some(last) = self.points.last() else {
            return [0.0; 4];
        };
        let total = last.total.max(1) as f64;
        [
            last.by_components[0] as f64 / total,
            last.by_components[1] as f64 / total,
            last.by_components[2] as f64 / total,
            last.by_components[3] as f64 / total,
        ]
    }

    /// The largest single-version increase (date, delta) — the paper calls
    /// out the mid-2012 Japanese registry spike.
    pub fn largest_jump(&self) -> Option<(Date, usize)> {
        self.points
            .windows(2)
            .filter_map(|w| {
                let delta = w[1].total.checked_sub(w[0].total)?;
                Some((w[1].date, delta))
            })
            .max_by_key(|&(_, delta)| delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    #[test]
    fn series_matches_history_sizes() {
        let h = generate(&GeneratorConfig::small(3));
        let series = GrowthSeries::compute(&h);
        assert_eq!(series.points.len(), h.version_count());
        for (p, (v, n)) in series.points.iter().zip(h.version_sizes()) {
            assert_eq!(p.date, v);
            assert_eq!(p.total, n, "at {v}");
            assert_eq!(p.by_components.iter().sum::<usize>(), p.total);
        }
    }

    #[test]
    fn largest_jump_is_the_spike() {
        let h = generate(&GeneratorConfig::small(9));
        let series = GrowthSeries::compute(&h);
        let (date, delta) = series.largest_jump().unwrap();
        let spike = psl_core::Date::parse("2012-07-01").unwrap();
        assert!(
            (date - spike).abs() < 250,
            "largest jump at {date} (delta {delta}), expected near {spike}"
        );
        assert!(delta >= 80, "delta {delta}");
    }

    #[test]
    fn shares_sum_to_one() {
        let h = generate(&GeneratorConfig::small(21));
        let shares = GrowthSeries::compute(&h).final_shares();
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_series_shares_are_zero() {
        let s = GrowthSeries { points: vec![] };
        assert_eq!(s.final_shares(), [0.0; 4]);
        assert_eq!(s.largest_jump(), None);
    }
}
