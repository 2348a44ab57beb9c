#ifndef MAGNETO_MAGNETO_H_
#define MAGNETO_MAGNETO_H_

/// \file
/// Umbrella header for the MAGNETO Edge-AI HAR platform.
///
/// Typical flow (matching the paper's two steps):
///
///   // Offline, "cloud" side: pre-train on the initial corpus.
///   magneto::core::CloudInitializer cloud(config);
///   auto bundle = cloud.Initialize(corpus, registry);
///
///   // Transfer the serialised bundle to the device (the only cloud->edge
///   // artifact), then run everything locally:
///   auto device = magneto::platform::EdgeDevice::Provision(
///       bundle->SerializeToString(), {});
///   device->runtime().PushFrame(frame);            // real-time inference
///   device->runtime().StartRecording();            // capture new activity
///   device->runtime().FinishRecordingAndLearn("Gesture Hi");
///
/// See examples/ for complete programs.

#include "common/fft.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/qgemm.h"
#include "common/random.h"
#include "common/result.h"
#include "common/serial.h"
#include "common/svd.h"
#include "common/status.h"
#include "compress/compress.h"
#include "core/activity_journal.h"
#include "core/async_updater.h"
#include "core/cloud_initializer.h"
#include "core/cross_validation.h"
#include "core/drift_monitor.h"
#include "core/edge_model.h"
#include "core/edge_runtime.h"
#include "core/embedder.h"
#include "core/incremental_learner.h"
#include "core/knn_classifier.h"
#include "core/model_bundle.h"
#include "core/ncm_classifier.h"
#include "core/smoother.h"
#include "core/stream_session.h"
#include "core/support_set.h"
#include "learn/ewc.h"
#include "learn/metrics.h"
#include "learn/pair_sampler.h"
#include "learn/siamese_trainer.h"
#include "nn/activation.h"
#include "nn/gradient_check.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/quantized_linear.h"
#include "nn/sequential.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/slo_monitor.h"
#include "obs/trace.h"
#include "platform/bundle_transport.h"
#include "platform/cloud_server.h"
#include "platform/edge_device.h"
#include "platform/edge_fleet.h"
#include "platform/energy.h"
#include "platform/fault_injector.h"
#include "platform/network_link.h"
#include "platform/privacy_auditor.h"
#include "platform/protocols.h"
#include "preprocess/denoise.h"
#include "preprocess/features.h"
#include "preprocess/normalization.h"
#include "preprocess/pipeline.h"
#include "preprocess/segmentation.h"
#include "preprocess/spectral_features.h"
#include "sensors/activity.h"
#include "sensors/context.h"
#include "sensors/dataset.h"
#include "sensors/recording.h"
#include "sensors/recording_io.h"
#include "sensors/sensor_types.h"
#include "sensors/signal_model.h"
#include "sensors/synthetic_generator.h"
#include "sensors/user_profile.h"

#endif  // MAGNETO_MAGNETO_H_
