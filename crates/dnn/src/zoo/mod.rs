//! The five-network benchmark suite of the PARIS+ELSA evaluation.
//!
//! Section V of the paper studies models spanning three levels of
//! compute-intensity: low (ShuffleNet, MobileNet), medium (ResNet,
//! Conformer) and high (BERT). Each builder reconstructs the real network
//! layer-by-layer so the per-layer FLOPs/bytes/parallelism footprints — the
//! inputs to GPU profiling — mirror the actual architectures.

mod bert;
mod conformer;
mod mobilenet;
mod resnet;
mod shufflenet;

pub use bert::bert_base;
pub use conformer::conformer;
pub use mobilenet::mobilenet_v1;
pub use resnet::resnet50;
pub use shufflenet::shufflenet_v2;

use std::fmt;
use std::str::FromStr;

use crate::graph::ModelGraph;

/// Coarse compute-intensity class of a benchmark model (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComputeIntensity {
    /// Lightweight CNNs (ShuffleNet, MobileNet).
    Low,
    /// Mid-sized CNN / speech encoder (ResNet, Conformer).
    Medium,
    /// Large transformer (BERT).
    High,
}

impl fmt::Display for ComputeIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeIntensity::Low => f.write_str("low"),
            ComputeIntensity::Medium => f.write_str("medium"),
            ComputeIntensity::High => f.write_str("high"),
        }
    }
}

/// One of the five benchmark networks studied in the paper.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
///
/// let resnet = ModelKind::ResNet50.build();
/// // ResNet-50 is ~4 GMACs ≈ 8 GFLOPs per sample.
/// assert!((7.0e9..9.0e9).contains(&resnet.flops_per_sample()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// ShuffleNetV2 1.0× — computer vision, low intensity.
    ShuffleNet,
    /// MobileNetV1 1.0× — computer vision, low intensity.
    MobileNet,
    /// ResNet-50 — computer vision, medium intensity.
    ResNet50,
    /// BERT-base (sequence length 128) — NLP, high intensity.
    BertBase,
    /// Conformer-M encoder — speech recognition, medium intensity.
    Conformer,
}

impl ModelKind {
    /// All five benchmark models, in the paper's presentation order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::ShuffleNet,
        ModelKind::MobileNet,
        ModelKind::ResNet50,
        ModelKind::BertBase,
        ModelKind::Conformer,
    ];

    /// Constructs the layer graph of this network.
    #[must_use]
    pub fn build(self) -> ModelGraph {
        match self {
            ModelKind::ShuffleNet => shufflenet_v2(),
            ModelKind::MobileNet => mobilenet_v1(),
            ModelKind::ResNet50 => resnet50(),
            ModelKind::BertBase => bert_base(),
            ModelKind::Conformer => conformer(),
        }
    }

    /// The paper's compute-intensity classification of this model.
    #[must_use]
    pub fn compute_intensity(self) -> ComputeIntensity {
        match self {
            ModelKind::ShuffleNet | ModelKind::MobileNet => ComputeIntensity::Low,
            ModelKind::ResNet50 | ModelKind::Conformer => ComputeIntensity::Medium,
            ModelKind::BertBase => ComputeIntensity::High,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelKind::ShuffleNet => "ShuffleNet",
            ModelKind::MobileNet => "MobileNet",
            ModelKind::ResNet50 => "ResNet",
            ModelKind::BertBase => "BERT",
            ModelKind::Conformer => "Conformer",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`ModelKind`] from an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelKindError {
    input: String,
}

impl fmt::Display for ParseModelKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown model name `{}` (expected one of shufflenet, mobilenet, resnet, bert, conformer)",
            self.input
        )
    }
}

impl std::error::Error for ParseModelKindError {}

impl FromStr for ModelKind {
    type Err = ParseModelKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "shufflenet" | "shufflenetv2" => Ok(ModelKind::ShuffleNet),
            "mobilenet" | "mobilenetv1" => Ok(ModelKind::MobileNet),
            "resnet" | "resnet50" => Ok(ModelKind::ResNet50),
            "bert" | "bert-base" | "bertbase" => Ok(ModelKind::BertBase),
            "conformer" => Ok(ModelKind::Conformer),
            _ => Err(ParseModelKindError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_nonempty_graphs() {
        for kind in ModelKind::ALL {
            let g = kind.build();
            assert!(g.layer_count() > 5, "{kind} has too few layers");
            assert!(g.flops_per_sample() > 0.0);
            assert!(g.weight_bytes() > 0.0);
        }
    }

    #[test]
    fn compute_intensity_ordering_matches_paper() {
        // ShuffleNet < MobileNet < {ResNet, Conformer} < BERT in FLOPs.
        let flops: Vec<f64> = ModelKind::ALL
            .iter()
            .map(|k| k.build().flops_per_sample())
            .collect();
        let (shuffle, mobile, resnet, bert, conformer) =
            (flops[0], flops[1], flops[2], flops[3], flops[4]);
        assert!(shuffle < mobile, "shufflenet lighter than mobilenet");
        assert!(mobile < resnet, "mobilenet lighter than resnet");
        assert!(resnet < bert, "resnet lighter than bert");
        assert!(
            conformer < bert && conformer > mobile,
            "conformer is medium"
        );
    }

    #[test]
    fn intensity_labels() {
        assert_eq!(
            ModelKind::ShuffleNet.compute_intensity(),
            ComputeIntensity::Low
        );
        assert_eq!(
            ModelKind::Conformer.compute_intensity(),
            ComputeIntensity::Medium
        );
        assert_eq!(
            ModelKind::BertBase.compute_intensity(),
            ComputeIntensity::High
        );
    }

    #[test]
    fn parse_round_trips() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("resnext".parse::<ModelKind>().is_err());
    }

    #[test]
    fn parse_error_is_descriptive() {
        let err = "resnext".parse::<ModelKind>().unwrap_err();
        assert!(err.to_string().contains("resnext"));
    }
}
