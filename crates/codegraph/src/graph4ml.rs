//! Graph4ML: the interconnected training graph of datasets and pipelines.
//!
//! Paper §3.4: "KGpip links the filtered ML pipelines with a unique dataset
//! name ... The result of adding these dataset nodes is a highly
//! interconnected graph for ML pipelines, we refer to it as Graph4ML. Our
//! Graph4ML captures both the code and data aspects of ML pipelines."

use crate::filter::PipelineGraph;
use crate::vocab::PipelineOp;
use std::collections::BTreeMap;

/// The assembled training corpus: filtered pipeline graphs grouped by the
/// dataset they were applied to, each carrying its dataset anchor node.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct Graph4Ml {
    datasets: Vec<String>,
    /// `(dataset index, pipeline graph with dataset node at index 0)`.
    pipelines: Vec<(usize, PipelineGraph)>,
}

impl Graph4Ml {
    /// Creates an empty Graph4ML.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset (idempotent), returning its index.
    pub fn dataset_index(&mut self, name: &str) -> usize {
        match self.datasets.iter().position(|d| d == name) {
            Some(i) => i,
            None => {
                self.datasets.push(name.to_string());
                self.datasets.len() - 1
            }
        }
    }

    /// Adds a filtered pipeline for a dataset. The dataset anchor node is
    /// attached here (Figure 4); empty pipelines are ignored.
    pub fn add_pipeline(&mut self, dataset: &str, pipeline: &PipelineGraph) {
        if pipeline.num_nodes() == 0 {
            return;
        }
        let idx = self.dataset_index(dataset);
        self.pipelines.push((idx, pipeline.with_dataset_node()));
    }

    /// Dataset names in registration order.
    pub fn datasets(&self) -> &[String] {
        &self.datasets
    }

    /// All `(dataset index, pipeline)` entries.
    pub fn pipelines(&self) -> &[(usize, PipelineGraph)] {
        &self.pipelines
    }

    /// Pipelines recorded for one dataset.
    pub fn pipelines_for(&self, dataset: &str) -> Vec<&PipelineGraph> {
        let Some(idx) = self.datasets.iter().position(|d| d == dataset) else {
            return Vec::new();
        };
        self.pipelines
            .iter()
            .filter(|(d, _)| *d == idx)
            .map(|(_, g)| g)
            .collect()
    }

    /// Total node count across all pipelines.
    pub fn total_nodes(&self) -> usize {
        self.pipelines.iter().map(|(_, g)| g.num_nodes()).sum()
    }

    /// Total edge count across all pipelines.
    pub fn total_edges(&self) -> usize {
        self.pipelines.iter().map(|(_, g)| g.num_edges()).sum()
    }

    /// Occurrence counts of each op across all pipelines (Figure 9:
    /// "learners and transformers found at least 10 times in the training
    /// pipelines").
    pub fn op_counts(&self) -> BTreeMap<PipelineOp, usize> {
        let mut counts = BTreeMap::new();
        for (_, g) in &self.pipelines {
            for op in &g.ops {
                *counts.entry(*op).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_pipeline(estimator: u8) -> PipelineGraph {
        PipelineGraph {
            ops: vec![
                PipelineOp::ReadCsv,
                PipelineOp::Transformer(1),
                PipelineOp::Estimator(estimator),
            ],
            edges: vec![(0, 1), (1, 2)],
        }
    }

    #[test]
    fn datasets_are_deduplicated() {
        let mut g = Graph4Ml::new();
        g.add_pipeline("titanic", &toy_pipeline(11));
        g.add_pipeline("titanic", &toy_pipeline(10));
        g.add_pipeline("houses", &toy_pipeline(3));
        assert_eq!(g.datasets(), &["titanic".to_string(), "houses".to_string()]);
        assert_eq!(g.pipelines_for("titanic").len(), 2);
        assert_eq!(g.pipelines_for("houses").len(), 1);
        assert!(g.pipelines_for("unknown").is_empty());
    }

    #[test]
    fn dataset_node_is_attached() {
        let mut g = Graph4Ml::new();
        g.add_pipeline("d", &toy_pipeline(0));
        let p = &g.pipelines_for("d")[0];
        assert_eq!(p.ops[0], PipelineOp::Dataset);
        assert_eq!(p.num_nodes(), 4);
        assert!(p.edges.contains(&(0, 1)));
    }

    #[test]
    fn empty_pipelines_are_ignored() {
        let mut g = Graph4Ml::new();
        g.add_pipeline("d", &PipelineGraph::default());
        assert_eq!(g.pipelines().len(), 0);
        assert_eq!(g.total_nodes(), 0);
    }

    #[test]
    fn op_counts_aggregate() {
        let mut g = Graph4Ml::new();
        g.add_pipeline("a", &toy_pipeline(11));
        g.add_pipeline("b", &toy_pipeline(11));
        let counts = g.op_counts();
        assert_eq!(counts[&PipelineOp::Estimator(11)], 2);
        assert_eq!(counts[&PipelineOp::Dataset], 2);
        assert_eq!(counts[&PipelineOp::Transformer(1)], 2);
    }
}
