//! Reading the server's Prometheus `/metrics` exposition.

use c2nn_serve::metrics::{parse_exposition, Sample};

/// One parsed scrape.
pub struct Scrape(Vec<Sample>);

impl Scrape {
    pub fn parse(text: &str) -> Result<Scrape, String> {
        parse_exposition(text).map(|e| Scrape(e.samples))
    }

    /// Scrape a live server over its frame port.
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let body = c2nn_serve::client::fetch_metrics(addr).map_err(|e| e.to_string())?;
        Scrape::parse(&body)
    }

    /// Sum of every sample named `name` whose labels include all of
    /// `labels` (0 when there is none).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// Change of [`Scrape::sum`] since an earlier scrape.
    pub fn delta(&self, before: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.sum(name, labels) - before.sum(name, labels)
    }
}

/// Mean observation of histogram `name` between two scrapes:
/// Δ`<name>_sum` / Δ`<name>_count`, or `None` when nothing was observed.
pub fn histogram_mean(
    before: &Scrape,
    after: &Scrape,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<f64> {
    let count = after.delta(before, &format!("{name}_count"), labels);
    let sum = after.delta(before, &format!("{name}_sum"), labels);
    (count > 0.0).then(|| sum / count)
}
