//! Layer-level intermediate representation of DNN inference work.
//!
//! Each [`Layer`] records the *per-sample* compute (FLOPs), memory traffic
//! (parameter bytes + activation bytes) and exploitable parallelism
//! ([`WorkShape`]) of one operator. A GPU performance model can combine these
//! with device constants to estimate latency and utilization at any batch
//! size — which is exactly the information the PARIS profiling step needs.

use std::fmt;

/// Bytes per element for the numeric precision used during inference.
///
/// The reproduction models fp16 inference throughout (the common deployment
/// precision on Ampere-class GPUs), but the IR carries the precision
/// explicitly so mixed-precision studies remain possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 16-bit floating point (2 bytes/element).
    #[default]
    Fp16,
    /// 32-bit floating point (4 bytes/element).
    Fp32,
}

impl Precision {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> f64 {
        match self {
            Precision::Fp16 => 2.0,
            Precision::Fp32 => 4.0,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Fp16 => f.write_str("fp16"),
            Precision::Fp32 => f.write_str("fp32"),
        }
    }
}

/// Which execution pipe of an SM a layer predominantly uses.
///
/// GEMM-shaped work (convolutions lowered to implicit GEMM, linear layers,
/// attention batched matmuls) runs on the tensor cores; everything else
/// (depthwise convolutions, normalization, activation functions, pooling,
/// data movement) runs on the ordinary CUDA cores at far lower peak FLOP/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeClass {
    /// Tensor-core (matrix-multiply-accumulate) pipe.
    TensorCore,
    /// Scalar/vector CUDA-core pipe.
    CudaCore,
}

impl fmt::Display for ComputeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeClass::TensorCore => f.write_str("tensor-core"),
            ComputeClass::CudaCore => f.write_str("cuda-core"),
        }
    }
}

/// The parallelism a layer exposes to the thread-block scheduler.
///
/// A kernel launch is modelled as a grid of independent tiles over a
/// GEMM-like iteration space. The *row* dimension grows with the batch size
/// (more samples → more rows → more tiles), the *column* dimension is fixed
/// by the layer, and `groups` counts fully independent sub-problems that each
/// get their own tiles (attention heads, depthwise channels).
///
/// The GPU model turns this into a thread-block count:
/// `tiles(b) = ceil(b·rows_per_sample / tile_rows) · ceil(cols / tile_cols) · groups`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkShape {
    /// Rows of the iteration space contributed by each sample in the batch.
    pub rows_per_sample: f64,
    /// Fixed column extent of the iteration space.
    pub cols: f64,
    /// Independent groups, each tiled separately (≥ 1).
    pub groups: f64,
}

impl WorkShape {
    /// A GEMM-like shape with `rows` per sample and `cols` outputs.
    #[must_use]
    pub fn gemm(rows_per_sample: f64, cols: f64) -> Self {
        WorkShape {
            rows_per_sample,
            cols,
            groups: 1.0,
        }
    }

    /// A grouped shape (attention heads, depthwise channels).
    #[must_use]
    pub fn grouped(rows_per_sample: f64, cols: f64, groups: f64) -> Self {
        WorkShape {
            rows_per_sample,
            cols,
            groups,
        }
    }

    /// An elementwise shape over `elements` values per sample.
    #[must_use]
    pub fn elementwise(elements: f64) -> Self {
        WorkShape {
            rows_per_sample: elements,
            cols: 1.0,
            groups: 1.0,
        }
    }
}

/// Operator category, retained for reporting and model introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerKind {
    /// Dense 2-D convolution (lowered to implicit GEMM).
    Conv2d,
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv,
    /// Fully connected / projection layer.
    Linear,
    /// Batched attention matmul (Q·Kᵀ or scores·V).
    AttentionMatmul,
    /// Softmax over attention scores or logits.
    Softmax,
    /// Batch/layer normalization.
    Norm,
    /// Elementwise activation (ReLU, GELU, swish, GLU...).
    Activation,
    /// Spatial or global pooling.
    Pool,
    /// ShuffleNet channel shuffle (pure data movement).
    ChannelShuffle,
    /// Embedding table lookup (pure memory traffic).
    Embedding,
    /// Elementwise residual addition.
    Residual,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv2d => "conv2d",
            LayerKind::DepthwiseConv => "depthwise-conv",
            LayerKind::Linear => "linear",
            LayerKind::AttentionMatmul => "attention-matmul",
            LayerKind::Softmax => "softmax",
            LayerKind::Norm => "norm",
            LayerKind::Activation => "activation",
            LayerKind::Pool => "pool",
            LayerKind::ChannelShuffle => "channel-shuffle",
            LayerKind::Embedding => "embedding",
            LayerKind::Residual => "residual",
        };
        f.write_str(s)
    }
}

/// One operator of a DNN, with its per-sample resource footprint.
///
/// Constructed through shape-aware constructors such as [`Layer::conv2d`] or
/// [`Layer::linear`], which derive FLOPs, parameter bytes, activation bytes
/// and the [`WorkShape`] from the layer's dimensions.
///
/// # Examples
///
/// ```
/// use dnn_zoo::Layer;
///
/// // The first layer of ResNet-50: 7×7/2 convolution, 3→64 channels,
/// // producing a 112×112 output map.
/// let stem = Layer::conv2d("conv1", 3, 64, 7, 2, 112, 112);
/// assert_eq!(stem.name(), "conv1");
/// // 2 · (112·112) · 64 · (7·7·3) FLOPs per sample
/// assert!((stem.flops_per_sample() - 2.0 * 12544.0 * 64.0 * 147.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    class: ComputeClass,
    precision: Precision,
    flops_per_sample: f64,
    weight_bytes: f64,
    io_bytes_per_sample: f64,
    work: WorkShape,
}

impl Layer {
    /// Dense 2-D convolution with a `kernel`×`kernel` filter and the given
    /// stride, producing an `out_h`×`out_w` map of `out_c` channels.
    ///
    /// Modelled as an implicit GEMM of shape
    /// `M = out_h·out_w`, `N = out_c`, `K = kernel²·in_c`.
    #[must_use]
    pub fn conv2d(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        out_h: usize,
        out_w: usize,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let m = (out_h * out_w) as f64;
        let n = out_c as f64;
        let k = (kernel * kernel * in_c) as f64;
        let in_elems = (in_c * out_h * stride * out_w * stride) as f64;
        let out_elems = m * n;
        Layer {
            name: name.into(),
            kind: LayerKind::Conv2d,
            class: ComputeClass::TensorCore,
            precision: Precision::Fp16,
            flops_per_sample: 2.0 * m * n * k,
            weight_bytes: k * n * eb,
            io_bytes_per_sample: (in_elems + out_elems) * eb,
            work: WorkShape::gemm(m, n),
        }
    }

    /// 1×1 (pointwise) convolution — a special case of [`Layer::conv2d`].
    #[must_use]
    pub fn pointwise_conv(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        out_h: usize,
        out_w: usize,
    ) -> Self {
        Self::conv2d(name, in_c, out_c, 1, 1, out_h, out_w)
    }

    /// Depthwise convolution: one `kernel`×`kernel` filter per channel.
    ///
    /// Runs on the CUDA cores (its arithmetic intensity is far too low for
    /// tensor-core utilization); every channel is an independent group.
    #[must_use]
    pub fn depthwise_conv(
        name: impl Into<String>,
        channels: usize,
        kernel: usize,
        stride: usize,
        out_h: usize,
        out_w: usize,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let spatial = (out_h * out_w) as f64;
        let c = channels as f64;
        let taps = (kernel * kernel) as f64;
        let in_elems = c * spatial * (stride * stride) as f64;
        Layer {
            name: name.into(),
            kind: LayerKind::DepthwiseConv,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: 2.0 * spatial * c * taps,
            weight_bytes: c * taps * eb,
            io_bytes_per_sample: (in_elems + c * spatial) * eb,
            work: WorkShape::grouped(spatial, 1.0, c),
        }
    }

    /// 1-D depthwise convolution over a sequence of `length` steps (the
    /// Conformer convolution module).
    #[must_use]
    pub fn depthwise_conv1d(
        name: impl Into<String>,
        channels: usize,
        kernel: usize,
        length: usize,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let c = channels as f64;
        let len = length as f64;
        let taps = kernel as f64;
        Layer {
            name: name.into(),
            kind: LayerKind::DepthwiseConv,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: 2.0 * len * c * taps,
            weight_bytes: c * taps * eb,
            io_bytes_per_sample: 2.0 * c * len * eb,
            work: WorkShape::grouped(len, 1.0, c),
        }
    }

    /// Fully connected layer applied to `tokens` positions per sample
    /// (use `tokens = 1` for classifier heads).
    #[must_use]
    pub fn linear(
        name: impl Into<String>,
        tokens: usize,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let m = tokens as f64;
        let n = out_features as f64;
        let k = in_features as f64;
        Layer {
            name: name.into(),
            kind: LayerKind::Linear,
            class: ComputeClass::TensorCore,
            precision: Precision::Fp16,
            flops_per_sample: 2.0 * m * n * k,
            weight_bytes: k * n * eb,
            io_bytes_per_sample: (m * k + m * n) * eb,
            work: WorkShape::gemm(m, n),
        }
    }

    /// One of the two batched attention matmuls (Q·Kᵀ or scores·V) across
    /// `heads` heads of dimension `head_dim` over a sequence of length `seq`.
    #[must_use]
    pub fn attention_matmul(
        name: impl Into<String>,
        heads: usize,
        seq: usize,
        head_dim: usize,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let h = heads as f64;
        let s = seq as f64;
        let d = head_dim as f64;
        // Per head: (s × d) · (d × s) → s² accumulating over d (or the
        // symmetric scores·V product — identical footprint).
        Layer {
            name: name.into(),
            kind: LayerKind::AttentionMatmul,
            class: ComputeClass::TensorCore,
            precision: Precision::Fp16,
            flops_per_sample: 2.0 * h * s * s * d,
            weight_bytes: 0.0,
            io_bytes_per_sample: h * (2.0 * s * d + s * s) * eb,
            work: WorkShape::grouped(s, s, h),
        }
    }

    /// Softmax over `elements` values per sample.
    #[must_use]
    pub fn softmax(name: impl Into<String>, elements: usize) -> Self {
        Self::elementwise_layer(name, LayerKind::Softmax, elements, 8.0)
    }

    /// Layer/batch normalization over `elements` values per sample.
    #[must_use]
    pub fn norm(name: impl Into<String>, elements: usize) -> Self {
        Self::elementwise_layer(name, LayerKind::Norm, elements, 6.0)
    }

    /// Elementwise activation over `elements` values per sample.
    #[must_use]
    pub fn activation(name: impl Into<String>, elements: usize) -> Self {
        Self::elementwise_layer(name, LayerKind::Activation, elements, 4.0)
    }

    /// Residual addition over `elements` values per sample.
    #[must_use]
    pub fn residual(name: impl Into<String>, elements: usize) -> Self {
        Self::elementwise_layer(name, LayerKind::Residual, elements, 1.0)
    }

    /// Pooling that reduces `in_elements` to `out_elements` per sample.
    #[must_use]
    pub fn pool(name: impl Into<String>, in_elements: usize, out_elements: usize) -> Self {
        let eb = Precision::Fp16.bytes();
        let inputs = in_elements as f64;
        let outputs = out_elements as f64;
        Layer {
            name: name.into(),
            kind: LayerKind::Pool,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: inputs,
            weight_bytes: 0.0,
            io_bytes_per_sample: (inputs + outputs) * eb,
            work: WorkShape::elementwise(inputs),
        }
    }

    /// ShuffleNet channel shuffle: pure data movement of `elements` values.
    #[must_use]
    pub fn channel_shuffle(name: impl Into<String>, elements: usize) -> Self {
        let eb = Precision::Fp16.bytes();
        let e = elements as f64;
        Layer {
            name: name.into(),
            kind: LayerKind::ChannelShuffle,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: 0.0,
            weight_bytes: 0.0,
            io_bytes_per_sample: 2.0 * e * eb,
            work: WorkShape::elementwise(e),
        }
    }

    /// Embedding lookup of `tokens` rows of width `dim` from a table with
    /// `vocab` entries (the table itself stays resident; traffic counts the
    /// gathered rows).
    #[must_use]
    pub fn embedding(name: impl Into<String>, tokens: usize, dim: usize, vocab: usize) -> Self {
        let eb = Precision::Fp16.bytes();
        let rows = tokens as f64;
        let width = dim as f64;
        let _ = vocab; // table residency is not modelled; kept for the record
        Layer {
            name: name.into(),
            kind: LayerKind::Embedding,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: 0.0,
            weight_bytes: 0.0,
            io_bytes_per_sample: 2.0 * rows * width * eb,
            work: WorkShape::elementwise(rows * width),
        }
    }

    fn elementwise_layer(
        name: impl Into<String>,
        kind: LayerKind,
        elements: usize,
        flops_per_element: f64,
    ) -> Self {
        let eb = Precision::Fp16.bytes();
        let e = elements as f64;
        Layer {
            name: name.into(),
            kind,
            class: ComputeClass::CudaCore,
            precision: Precision::Fp16,
            flops_per_sample: e * flops_per_element,
            weight_bytes: 0.0,
            io_bytes_per_sample: 2.0 * e * eb,
            work: WorkShape::elementwise(e),
        }
    }

    /// The layer's (non-unique) name, e.g. `"layer3.2.conv2"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator category.
    #[must_use]
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Which SM pipe the layer runs on.
    #[must_use]
    pub fn class(&self) -> ComputeClass {
        self.class
    }

    /// Numeric precision of the layer's operands.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Floating-point operations per input sample.
    #[must_use]
    pub fn flops_per_sample(&self) -> f64 {
        self.flops_per_sample
    }

    /// Parameter bytes read once per kernel launch (amortized over the
    /// batch — the key reason utilization grows with batch size).
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        self.weight_bytes
    }

    /// Activation bytes (input + output) moved per sample.
    #[must_use]
    pub fn io_bytes_per_sample(&self) -> f64 {
        self.io_bytes_per_sample
    }

    /// The parallelism this layer exposes.
    #[must_use]
    pub fn work(&self) -> WorkShape {
        self.work
    }

    /// Total DRAM traffic for a batch of `b` samples, in bytes.
    #[must_use]
    pub fn bytes_for_batch(&self, b: usize) -> f64 {
        self.weight_bytes + self.io_bytes_per_sample * b as f64
    }

    /// Total FLOPs for a batch of `b` samples.
    #[must_use]
    pub fn flops_for_batch(&self, b: usize) -> f64 {
        self.flops_per_sample * b as f64
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {:.2} MFLOPs/sample",
            self.name,
            self.kind,
            self.flops_per_sample / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_flops_match_formula() {
        // 3×3/1 conv, 64→64 channels, 56×56 output.
        let l = Layer::conv2d("c", 64, 64, 3, 1, 56, 56);
        let expect = 2.0 * (56.0 * 56.0) * 64.0 * (9.0 * 64.0);
        assert!((l.flops_per_sample() - expect).abs() < 1.0);
        assert_eq!(l.class(), ComputeClass::TensorCore);
        assert_eq!(l.kind(), LayerKind::Conv2d);
    }

    #[test]
    fn conv2d_weights_are_k_times_n() {
        let l = Layer::conv2d("c", 64, 128, 3, 1, 28, 28);
        assert!((l.weight_bytes() - (9.0 * 64.0) * 128.0 * 2.0).abs() < 1.0);
    }

    #[test]
    fn pointwise_is_conv_with_unit_kernel() {
        let pw = Layer::pointwise_conv("pw", 32, 64, 112, 112);
        let cv = Layer::conv2d("cv", 32, 64, 1, 1, 112, 112);
        assert_eq!(pw.flops_per_sample(), cv.flops_per_sample());
        assert_eq!(pw.weight_bytes(), cv.weight_bytes());
    }

    #[test]
    fn depthwise_runs_on_cuda_cores_with_channel_groups() {
        let l = Layer::depthwise_conv("dw", 512, 3, 1, 14, 14);
        assert_eq!(l.class(), ComputeClass::CudaCore);
        assert!((l.work().groups - 512.0).abs() < f64::EPSILON);
        let expect = 2.0 * (14.0 * 14.0) * 512.0 * 9.0;
        assert!((l.flops_per_sample() - expect).abs() < 1.0);
    }

    #[test]
    fn linear_footprint() {
        let l = Layer::linear("fc", 128, 768, 3072);
        let expect = 2.0 * 128.0 * 3072.0 * 768.0;
        assert!((l.flops_per_sample() - expect).abs() < 1.0);
        assert!((l.weight_bytes() - 768.0 * 3072.0 * 2.0).abs() < 1.0);
    }

    #[test]
    fn attention_has_no_weights_and_head_groups() {
        let l = Layer::attention_matmul("qk", 12, 128, 64);
        assert_eq!(l.weight_bytes(), 0.0);
        assert!((l.work().groups - 12.0).abs() < f64::EPSILON);
        let expect = 2.0 * 12.0 * 128.0 * 128.0 * 64.0;
        assert!((l.flops_per_sample() - expect).abs() < 1.0);
    }

    #[test]
    fn batch_scales_io_but_not_weights() {
        let l = Layer::conv2d("c", 64, 64, 3, 1, 56, 56);
        let b1 = l.bytes_for_batch(1);
        let b8 = l.bytes_for_batch(8);
        assert!((b8 - b1 - 7.0 * l.io_bytes_per_sample()).abs() < 1e-6);
        assert!((l.flops_for_batch(8) - 8.0 * l.flops_per_sample()).abs() < 1.0);
    }

    #[test]
    fn elementwise_layers_are_memory_shaped() {
        for l in [
            Layer::softmax("s", 1000),
            Layer::norm("n", 1000),
            Layer::activation("a", 1000),
            Layer::residual("r", 1000),
            Layer::channel_shuffle("cs", 1000),
        ] {
            assert_eq!(l.class(), ComputeClass::CudaCore);
            assert_eq!(l.weight_bytes(), 0.0);
            assert!(l.io_bytes_per_sample() > 0.0);
        }
    }

    #[test]
    fn display_mentions_name_and_kind() {
        let l = Layer::linear("classifier", 1, 2048, 1000);
        let s = l.to_string();
        assert!(s.contains("classifier") && s.contains("linear"));
    }

    #[test]
    fn work_shape_constructors() {
        let g = WorkShape::gemm(100.0, 64.0);
        assert_eq!(g.groups, 1.0);
        let h = WorkShape::grouped(128.0, 128.0, 12.0);
        assert_eq!(h.groups, 12.0);
        let e = WorkShape::elementwise(4096.0);
        assert_eq!((e.rows_per_sample, e.cols), (4096.0, 1.0));
    }
}
