//! A whole network as an ordered list of layers.

use std::fmt;

use crate::layer::{ComputeClass, Layer};

/// A DNN described as the sequence of kernels one inference executes.
///
/// The order matters only for reporting; the performance model treats layers
/// as a serial chain of kernel launches (standard for inference engines
/// without inter-layer fusion across streams).
///
/// # Examples
///
/// ```
/// use dnn_zoo::{Layer, ModelGraph};
///
/// let toy = ModelGraph::new("toy")
///     .with_layer(Layer::conv2d("stem", 3, 16, 3, 2, 112, 112))
///     .with_layer(Layer::linear("head", 1, 16, 10));
/// assert_eq!(toy.layer_count(), 2);
/// assert!(toy.flops_per_sample() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    name: String,
    layers: Vec<Layer>,
}

impl ModelGraph {
    /// Creates an empty graph with the given display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ModelGraph {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with_layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn push(&mut self, layer: Layer) {
        self.layers.push(layer);
    }

    /// Appends every layer from an iterator.
    pub fn extend_layers<I: IntoIterator<Item = Layer>>(&mut self, layers: I) {
        self.layers.extend(layers);
    }

    /// The network's display name (e.g. `"resnet50"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of kernels one inference launches.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total FLOPs for a single sample.
    #[must_use]
    pub fn flops_per_sample(&self) -> f64 {
        self.layers.iter().map(Layer::flops_per_sample).sum()
    }

    /// Total FLOPs for a batch of `b` samples.
    #[must_use]
    pub fn flops_for_batch(&self, b: usize) -> f64 {
        self.flops_per_sample() * b as f64
    }

    /// Total parameter bytes (read once per inference, any batch size).
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        self.layers.iter().map(Layer::weight_bytes).sum()
    }

    /// Total activation traffic per sample, in bytes.
    #[must_use]
    pub fn io_bytes_per_sample(&self) -> f64 {
        self.layers.iter().map(Layer::io_bytes_per_sample).sum()
    }

    /// Fraction of FLOPs that run on the tensor-core pipe.
    #[must_use]
    pub fn tensor_flop_fraction(&self) -> f64 {
        let total = self.flops_per_sample();
        if total == 0.0 {
            return 0.0;
        }
        let tensor: f64 = self
            .layers
            .iter()
            .filter(|l| l.class() == ComputeClass::TensorCore)
            .map(Layer::flops_per_sample)
            .sum();
        tensor / total
    }

    /// Arithmetic intensity at batch `b`: FLOPs per DRAM byte.
    ///
    /// Grows with `b` because parameter traffic is amortized across the
    /// batch — the effect that makes large batches utilization-friendly.
    #[must_use]
    pub fn arithmetic_intensity(&self, b: usize) -> f64 {
        let bytes = self.weight_bytes() + self.io_bytes_per_sample() * b as f64;
        if bytes == 0.0 {
            return 0.0;
        }
        self.flops_for_batch(b) / bytes
    }
}

impl fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GFLOPs/sample)",
            self.name,
            self.layers.len(),
            self.flops_per_sample() / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ModelGraph {
        ModelGraph::new("toy")
            .with_layer(Layer::conv2d("c1", 3, 16, 3, 1, 32, 32))
            .with_layer(Layer::activation("a1", 16 * 32 * 32))
            .with_layer(Layer::linear("fc", 1, 16, 10))
    }

    #[test]
    fn aggregates_sum_over_layers() {
        let g = toy();
        let by_hand: f64 = g.layers().iter().map(Layer::flops_per_sample).sum();
        assert_eq!(g.flops_per_sample(), by_hand);
        assert_eq!(g.layer_count(), 3);
    }

    #[test]
    fn batch_flops_scale_linearly() {
        let g = toy();
        assert!((g.flops_for_batch(4) - 4.0 * g.flops_per_sample()).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_intensity_grows_with_batch() {
        let g = toy();
        assert!(g.arithmetic_intensity(8) > g.arithmetic_intensity(1));
    }

    #[test]
    fn tensor_fraction_between_zero_and_one() {
        let g = toy();
        let f = g.tensor_flop_fraction();
        assert!(f > 0.0 && f < 1.0, "toy mixes tensor and cuda work: {f}");
    }

    #[test]
    fn empty_graph_is_well_behaved() {
        let g = ModelGraph::new("empty");
        assert_eq!(g.flops_per_sample(), 0.0);
        assert_eq!(g.tensor_flop_fraction(), 0.0);
        assert_eq!(g.arithmetic_intensity(8), 0.0);
    }

    #[test]
    fn push_and_extend() {
        let mut g = ModelGraph::new("g");
        g.push(Layer::linear("a", 1, 8, 8));
        g.extend_layers([Layer::linear("b", 1, 8, 8), Layer::linear("c", 1, 8, 8)]);
        assert_eq!(g.layer_count(), 3);
    }

    #[test]
    fn display_mentions_name_and_layer_count() {
        let s = toy().to_string();
        assert!(s.contains("toy") && s.contains("3 layers"));
    }
}
