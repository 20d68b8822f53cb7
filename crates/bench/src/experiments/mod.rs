//! One module per paper artifact. Every `run()` prints the measured values
//! next to the paper-reported ones.

pub mod dash_cmd;
pub mod ext;
pub mod faults_cmd;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod oracle_cmd;
pub mod replay_cmd;
pub mod sampling_cmd;
pub mod serve_cmd;
pub mod tables;
pub mod trace_cmd;
pub mod tracegen_cmd;
