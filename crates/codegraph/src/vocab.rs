//! The canonical pipeline-op vocabulary shared between the graph filter,
//! Graph4ML, the graph generator, and skeleton extraction.
//!
//! Paper §3.4 restricts the filtered graphs to "the target ML libraries,
//! namely, Scikit-learn, XGBoost, and LGBM". Each retained call maps to one
//! canonical op below; the generator emits node types from this same
//! vocabulary, which is what lets generated graphs be decoded back into
//! pipeline skeletons.

use serde::{Deserialize, Serialize};

/// A canonical pipeline operation (node type of filtered graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PipelineOp {
    /// The dataset anchor node KGpip adds (Figure 4).
    Dataset,
    /// `pandas.read_csv` — the entry point of nearly every pipeline.
    ReadCsv,
    /// `sklearn.model_selection.train_test_split`.
    TrainTestSplit,
    /// A preprocessor; the payload is the canonical transformer name index
    /// into [`TRANSFORMER_NAMES`].
    Transformer(u8),
    /// An estimator; the payload indexes [`ESTIMATOR_NAMES`].
    Estimator(u8),
    /// `.fit(...)` on an estimator object.
    Fit,
    /// `.predict(...)` on an estimator object.
    Predict,
}

/// Canonical transformer names (must match
/// `kgpip_learners::TransformerKind::name`).
pub const TRANSFORMER_NAMES: [&str; 10] = [
    "simple_imputer",
    "standard_scaler",
    "min_max_scaler",
    "robust_scaler",
    "normalizer",
    "one_hot_encoder",
    "variance_threshold",
    "select_k_best",
    "pca",
    "polynomial_features",
];

/// Canonical estimator names (must match
/// `kgpip_learners::EstimatorKind::name`).
pub const ESTIMATOR_NAMES: [&str; 13] = [
    "logistic_regression",
    "linear_svm",
    "linear_regression",
    "ridge",
    "lasso",
    "knn",
    "gaussian_nb",
    "decision_tree",
    "random_forest",
    "extra_trees",
    "gradient_boost",
    "xgboost",
    "lgbm",
];

impl PipelineOp {
    /// Canonical snake_case name.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineOp::Dataset => "dataset",
            PipelineOp::ReadCsv => "read_csv",
            PipelineOp::TrainTestSplit => "train_test_split",
            PipelineOp::Transformer(i) => TRANSFORMER_NAMES[*i as usize],
            PipelineOp::Estimator(i) => ESTIMATOR_NAMES[*i as usize],
            PipelineOp::Fit => "fit",
            PipelineOp::Predict => "predict",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(name: &str) -> Option<PipelineOp> {
        match name {
            "dataset" => return Some(PipelineOp::Dataset),
            "read_csv" => return Some(PipelineOp::ReadCsv),
            "train_test_split" => return Some(PipelineOp::TrainTestSplit),
            "fit" => return Some(PipelineOp::Fit),
            "predict" => return Some(PipelineOp::Predict),
            _ => {}
        }
        if let Some(i) = TRANSFORMER_NAMES.iter().position(|n| *n == name) {
            return Some(PipelineOp::Transformer(i as u8));
        }
        ESTIMATOR_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| PipelineOp::Estimator(i as u8))
    }

    /// True for transformer ops.
    pub fn is_transformer(&self) -> bool {
        matches!(self, PipelineOp::Transformer(_))
    }

    /// True for estimator ops.
    pub fn is_estimator(&self) -> bool {
        matches!(self, PipelineOp::Estimator(_))
    }
}

impl std::fmt::Display for PipelineOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The fixed node-type vocabulary for the graph generator: every op gets a
/// dense integer id.
#[derive(Debug, Clone)]
pub struct OpVocab {
    ops: Vec<PipelineOp>,
}

impl Default for OpVocab {
    fn default() -> Self {
        Self::new()
    }
}

impl OpVocab {
    /// Builds the full vocabulary in a stable order: dataset, read_csv,
    /// train_test_split, transformers, estimators, fit, predict.
    pub fn new() -> OpVocab {
        let mut ops = vec![
            PipelineOp::Dataset,
            PipelineOp::ReadCsv,
            PipelineOp::TrainTestSplit,
        ];
        for i in 0..TRANSFORMER_NAMES.len() {
            ops.push(PipelineOp::Transformer(i as u8));
        }
        for i in 0..ESTIMATOR_NAMES.len() {
            ops.push(PipelineOp::Estimator(i as u8));
        }
        ops.push(PipelineOp::Fit);
        ops.push(PipelineOp::Predict);
        OpVocab { ops }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when empty (never, for the standard vocabulary).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Dense id of an op.
    pub fn id(&self, op: PipelineOp) -> usize {
        self.ops
            .iter()
            .position(|o| *o == op)
            .expect("op is part of the fixed vocabulary")
    }

    /// Op for a dense id.
    pub fn op(&self, id: usize) -> PipelineOp {
        self.ops[id]
    }

    /// All ops in id order.
    pub fn ops(&self) -> &[PipelineOp] {
        &self.ops
    }
}

/// Maps a resolved dotted API path to its canonical pipeline op, if the
/// call belongs to the target ML libraries (paper §3.4). Returns `None`
/// for everything else (pandas manipulation, matplotlib, torch, ...).
pub fn canonical_op(api_path: &str) -> Option<PipelineOp> {
    let t = |i: usize| Some(PipelineOp::Transformer(i as u8));
    let e = |i: usize| Some(PipelineOp::Estimator(i as u8));
    match api_path {
        "pandas.read_csv" => Some(PipelineOp::ReadCsv),
        "sklearn.model_selection.train_test_split" => Some(PipelineOp::TrainTestSplit),
        "sklearn.impute.SimpleImputer" => t(0),
        "sklearn.preprocessing.StandardScaler" => t(1),
        "sklearn.preprocessing.MinMaxScaler" => t(2),
        "sklearn.preprocessing.RobustScaler" => t(3),
        "sklearn.preprocessing.Normalizer" => t(4),
        "sklearn.preprocessing.OneHotEncoder" => t(5),
        "sklearn.feature_selection.VarianceThreshold" => t(6),
        "sklearn.feature_selection.SelectKBest" => t(7),
        "sklearn.decomposition.PCA" => t(8),
        "sklearn.preprocessing.PolynomialFeatures" => t(9),
        "sklearn.linear_model.LogisticRegression" => e(0),
        "sklearn.svm.SVC"
        | "sklearn.svm.LinearSVC"
        | "sklearn.svm.SVR"
        | "sklearn.svm.LinearSVR" => e(1),
        "sklearn.linear_model.LinearRegression" => e(2),
        "sklearn.linear_model.Ridge" => e(3),
        "sklearn.linear_model.Lasso" => e(4),
        "sklearn.neighbors.KNeighborsClassifier" | "sklearn.neighbors.KNeighborsRegressor" => e(5),
        "sklearn.naive_bayes.GaussianNB" => e(6),
        "sklearn.tree.DecisionTreeClassifier" | "sklearn.tree.DecisionTreeRegressor" => e(7),
        "sklearn.ensemble.RandomForestClassifier" | "sklearn.ensemble.RandomForestRegressor" => {
            e(8)
        }
        "sklearn.ensemble.ExtraTreesClassifier" | "sklearn.ensemble.ExtraTreesRegressor" => e(9),
        "sklearn.ensemble.GradientBoostingClassifier"
        | "sklearn.ensemble.GradientBoostingRegressor" => e(10),
        "xgboost.XGBClassifier" | "xgboost.XGBRegressor" => e(11),
        "lightgbm.LGBMClassifier" | "lightgbm.LGBMRegressor" => e(12),
        _ => {
            // Method calls on pipeline objects: `<anything>.fit` / `.predict`
            // on a recognized estimator/transformer path.
            if let Some(stripped) = api_path.strip_suffix(".fit") {
                if canonical_op(stripped).is_some() {
                    return Some(PipelineOp::Fit);
                }
            }
            if let Some(stripped) = api_path.strip_suffix(".predict") {
                if canonical_op(stripped).is_some() {
                    return Some(PipelineOp::Predict);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_is_stable_and_complete() {
        let v = OpVocab::new();
        assert_eq!(v.len(), 3 + 10 + 13 + 2);
        assert_eq!(v.id(PipelineOp::Dataset), 0);
        assert_eq!(v.id(PipelineOp::ReadCsv), 1);
        for id in 0..v.len() {
            assert_eq!(v.id(v.op(id)), id);
        }
    }

    #[test]
    fn name_roundtrip() {
        let v = OpVocab::new();
        for op in v.ops() {
            assert_eq!(PipelineOp::from_name(op.name()), Some(*op), "{op}");
        }
        assert_eq!(PipelineOp::from_name("transformers_xl"), None);
    }

    #[test]
    fn canonical_mapping() {
        assert_eq!(canonical_op("pandas.read_csv"), Some(PipelineOp::ReadCsv));
        assert_eq!(
            canonical_op("xgboost.XGBClassifier"),
            Some(PipelineOp::Estimator(11))
        );
        assert_eq!(
            canonical_op("sklearn.preprocessing.StandardScaler"),
            Some(PipelineOp::Transformer(1))
        );
        assert_eq!(canonical_op("matplotlib.pyplot.plot"), None);
        assert_eq!(canonical_op("torch.nn.Linear"), None);
        assert_eq!(canonical_op("sklearn.svm.SVC.fit"), Some(PipelineOp::Fit));
        assert_eq!(
            canonical_op("xgboost.XGBRegressor.predict"),
            Some(PipelineOp::Predict)
        );
        assert_eq!(canonical_op("pandas.DataFrame.describe"), None);
    }

    #[test]
    fn estimator_and_transformer_flags() {
        assert!(PipelineOp::Transformer(0).is_transformer());
        assert!(!PipelineOp::Transformer(0).is_estimator());
        assert!(PipelineOp::Estimator(3).is_estimator());
        assert!(!PipelineOp::Fit.is_estimator());
    }

    #[test]
    fn names_match_learner_crate_vocabulary() {
        // Guard against drift between the two crates' canonical names.
        assert_eq!(TRANSFORMER_NAMES[1], "standard_scaler");
        assert_eq!(ESTIMATOR_NAMES[11], "xgboost");
        assert_eq!(ESTIMATOR_NAMES[10], "gradient_boost");
    }
}
