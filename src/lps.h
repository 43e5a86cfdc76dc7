// lps.h — the single public include for the library.
//
//     #include "src/lps.h"
//
// is the supported way to consume the library: it exports the stable
// surface and nothing else. What you get:
//
//   Construction      SketchSpec + MakeSketch (one registry for all 21
//                     kinds), plus the concrete classes for typed access
//                     (core::LpSampler, heavy::CsHeavyHitters, ...)
//   Ingestion         stream::ParallelPipeline (the batch driver: one
//                     inline shard by default, a thread-per-shard
//                     runtime when asked), stream::WindowManager
//                     (sliding windows by subtraction),
//                     stream::StreamState (replicas + pipeline + window
//                     of one SketchSpec, sealed at the positions solo
//                     ingestion would), io::StreamFeeder over
//                     io::ByteSource (async file/socket ingest
//                     overlapping read, decode, and sketching — see
//                     docs/io.md)
//   Queries           Query(sketch) -> QueryResult, the tagged answer
//                     type shared by the CLI, the server wire protocol,
//                     and the examples
//   Persistence       LinearSketch::Serialize/Deserialize,
//                     DeserializeAnySketch, WriteBitsToFile/
//                     io::ReadBitsStreamed
//   Workloads         stream::generators, the trace writers
//                     io::WriteTrace / WriteLetterTrace /
//                     WriteBinaryTrace (io::UpdateDecoder reads both
//                     encodings), and stream::ExactVector as the test
//                     oracle
//
// Deeper internal headers (src/sketch/*, src/field/*, src/recovery/*,
// ...) remain includable but are NOT a stability surface; new code should
// include this file only. The multi-tenant server layers live separately
// under src/server/ — they are consumers of this surface, not part of it.
#pragma once

#include "src/api/query_result.h"
#include "src/api/sketch_spec.h"
#include "src/apps/moment_estimation.h"
#include "src/core/ako_sampler.h"
#include "src/core/fis_l0_sampler.h"
#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/duplicates/positive_finder.h"
#include "src/heavy/heavy_hitters.h"
#include "src/io/bits_io.h"
#include "src/io/byte_source.h"
#include "src/io/stream_feeder.h"
#include "src/io/update_decoder.h"
#include "src/norm/l0_norm.h"
#include "src/norm/lp_norm.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/stream_state.h"
#include "src/stream/update.h"
#include "src/stream/window_manager.h"
#include "src/util/serialize.h"
#include "src/util/status.h"
