//! Location-aware crowdsourced POI labelling: result inference and task
//! assignment.
//!
//! This crate is a faithful implementation of the system described in
//! *Hu, Zheng, Bao, Li, Feng, Cheng — "Crowdsourced POI Labelling:
//! Location-Aware Result Inference and Task Assignment", ICDE 2016*:
//!
//! * a **graphical inference model** combining each worker's inherent
//!   quality `P(i_w)`, their distance-aware quality (a mixture `P(d_w)` over
//!   a set of bell-shaped distance functions) and each POI's influence
//!   `P(d_t)`, estimated by EM ([`model`]);
//! * an **online task assigner** that greedily maximises the expected
//!   accuracy improvement of assigning tasks to the currently available
//!   workers ([`assign`], [`accuracy`]);
//! * the **framework** alternating the two under an assignment budget
//!   ([`framework`], Figure 1 of the paper).
//!
//! # Quick start
//!
//! ```
//! use crowd_core::prelude::*;
//! use crowd_geo::Point;
//!
//! // Two POIs with three candidate labels each.
//! let tasks = TaskSet::new(vec![
//!     synthetic_task("Olympic Park", Point::new(0.2, 0.8), 3),
//!     synthetic_task("Botanical Garden", Point::new(0.7, 0.1), 3),
//! ]);
//! let workers = WorkerPool::from_workers(vec![
//!     Worker::at("alice", Point::new(0.25, 0.75)),
//!     Worker::at("bob", Point::new(0.6, 0.2)),
//! ]).unwrap();
//!
//! let mut fw = Framework::new(tasks, workers, FrameworkConfig::default());
//!
//! // Workers request tasks; ACCOPT picks the most informative ones.
//! let mut assigner = AccOptAssigner::new();
//! let assignment = fw.request(&mut assigner, &[WorkerId(0), WorkerId(1)]).unwrap();
//! assert_eq!(assignment.total(), 4); // h = 2 tasks per worker
//!
//! // Answers feed the online inference model.
//! for (worker, task) in assignment.pairs() {
//!     fw.submit(worker, task, LabelBits::from_slice(&[true, false, true])).unwrap();
//! }
//! let inference = fw.inference();
//! assert!(inference.decision(TaskId(0)).get(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
mod answers;
pub mod assign;
mod distfn;
mod error;
pub mod framework;
mod ids;
mod labels;
pub mod model;
pub mod obs;
pub mod prob;
mod reserve;
mod task;
mod worker;

pub use accuracy::{AccuracyEstimator, GainSemantics, LabelAccuracy};
pub use answers::{Answer, AnswerLog};
pub use assign::{AccOptAssigner, AssignContext, Assigner, Assignment, InnerLoop};
pub use distfn::{BellShaped, DistanceFunctionSet};
pub use error::{CoreError, Result};
pub use framework::{Framework, FrameworkConfig};
pub use ids::{TaskId, WorkerId};
pub use labels::LabelBits;
pub use model::{
    AnswerGeometry, EmConfig, EmReport, InferenceResult, InitStrategy, ModelParams, OnlineModel,
    PeerStats, SufficientStats, UpdatePolicy, WorkerStatDelta,
};
pub use obs::{Recorder, RecorderHandle};
pub use reserve::ReservationSet;
pub use task::{synthetic_task, Label, Task, TaskSet};
pub use worker::{Distances, Worker, WorkerPool};

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::accuracy::{AccuracyEstimator, GainSemantics, LabelAccuracy};
    pub use crate::assign::{AccOptAssigner, AssignContext, Assigner, Assignment, InnerLoop};
    pub use crate::framework::{Framework, FrameworkConfig};
    pub use crate::model::{
        run_em, run_em_naive, AnswerGeometry, EmConfig, EmReport, InferenceResult, InitStrategy,
        ModelParams, OnlineModel, PeerStats, UpdatePolicy, WorkerStatDelta,
    };
    pub use crate::task::{synthetic_task, Label, Task, TaskSet};
    pub use crate::worker::{Distances, Worker, WorkerPool};
    pub use crate::{
        Answer, AnswerLog, BellShaped, CoreError, DistanceFunctionSet, LabelBits, Recorder,
        RecorderHandle, ReservationSet, TaskId, WorkerId,
    };
}
