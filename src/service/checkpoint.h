// Checkpoint container format and file helpers for MarketEngine
// (DESIGN.md §12; field-by-field spec in docs/checkpoint_format.md).
//
// A checkpoint is a self-describing binary blob:
//
//   magic "MAPSCKPT" (8 bytes)
//   u32 format version
//   u32 section count
//   section*: u32 section id, u64 payload length, u32 CRC-32(payload),
//             payload bytes
//
// Sections appear in ascending id order, each exactly once; payloads are
// the little-endian StateWriter encodings of util/serial.h. Readers verify
// the magic, version, section structure, and every CRC before decoding a
// single field, and every decode failure carries a byte offset — corrupt
// or truncated files are rejected with a Status, never undefined behavior.
// MarketEngine::SaveCheckpoint / RestoreFromCheckpoint (implemented here,
// declared in market_engine.h) produce and consume this format; the
// restore commits all-or-nothing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/grid.h"
#include "market/task.h"
#include "market/worker.h"
#include "util/serial.h"
#include "util/status.h"

namespace maps {

/// First bytes of every single-engine checkpoint file.
inline constexpr char kCheckpointMagic[8] = {'M', 'A', 'P', 'S',
                                             'C', 'K', 'P', 'T'};

/// Container format version produced by SaveCheckpoint. Readers reject
/// other versions (no cross-version migration yet; see DESIGN.md §12 for
/// the compatibility policy). Version 2 added the per-worker-record
/// `indexed` flag (sharded extraction tombstones); version 3 stores one
/// stage, the open period's tasks, with no seal flag.
inline constexpr uint32_t kCheckpointFormatVersion = 3;

/// Number of sections in a single-engine checkpoint container (config,
/// core counters, workers, staged tasks, pending bits, RNG, strategy).
inline constexpr uint32_t kCheckpointNumSections = 7;

/// First bytes of a ShardedMarketEngine checkpoint file (its container
/// embeds one kCheckpointMagic blob per region; see
/// docs/checkpoint_format.md).
inline constexpr char kShardedCheckpointMagic[8] = {'M', 'A', 'P', 'S',
                                                    'S', 'H', 'R', 'D'};

/// Container format version produced by ShardedMarketEngine::SaveCheckpoint.
/// Version 2 added the per-route hidden valuation and the routing layer's
/// deferred_tasks counter (failure domains, DESIGN.md §15).
inline constexpr uint32_t kShardedCheckpointFormatVersion = 2;

namespace internal {

/// Appends one container section — u32 id, u64 payload length, u32
/// CRC-32(payload), payload bytes — to a blob under construction.
void AppendCheckpointSection(uint32_t id, const std::string& payload,
                             StateWriter* out);

/// Validates a container's structure — `magic` (8 bytes), `version`,
/// exactly `num_sections` sections in ascending id order 1..N, every
/// length and CRC — and extracts the payloads. No payload field is decoded
/// here, so structural corruption is caught (with a byte offset) before any
/// interpretation. `what` names the container in error messages.
Status ParseCheckpointContainer(const std::string& data, const char* magic,
                                uint32_t version, uint32_t num_sections,
                                const char* what,
                                std::vector<std::string>* payloads);

// Records both containers encode the same way. Each has one writer and one
// reader (or checker); MarketEngine and ShardedMarketEngine both call them,
// so the MAPSCKPT and MAPSSHRD encodings of a record cannot drift apart.

/// Grid fingerprint: i32 rows, i32 cols, then the region rectangle as four
/// doubles (min_x, min_y, max_x, max_y).
void PutGridFingerprint(const GridPartition& grid, StateWriter* w);
/// Reads a grid fingerprint; FailedPrecondition unless it equals `grid`'s.
Status CheckGridFingerprint(const GridPartition& grid, StateReader* r);

/// Worker-lifecycle fingerprint: bool single_use, double speed, double
/// reposition_prob, u64 reposition_seed.
void PutLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                             StateWriter* w);
/// Reads a lifecycle fingerprint; FailedPrecondition unless it equals
/// `lifecycle`.
Status CheckLifecycleFingerprint(const WorkerLifecycle& lifecycle,
                                 StateReader* r);

/// Encoded size of one task record: i64 id, i32 period, four doubles for
/// origin and destination, double distance, i32 grid.
inline constexpr size_t kTaskRecordBytes = 56;
void PutTaskRecord(const Task& task, StateWriter* w);
/// Reads one task record; InvalidArgument when its grid lies outside
/// `grid`. `what` names the task's role in that message ("staged task").
Status GetTaskRecord(const GridPartition& grid, const char* what,
                     StateReader* r, Task* task);

/// Pending acceptance bits: u64 count, then (i64 task id, bool accepted)
/// pairs in ascending id order.
void PutPendingBits(const std::unordered_map<TaskId, bool>& bits,
                    StateWriter* w);
/// Reads pending bits; InvalidArgument when a task id repeats.
Status GetPendingBits(StateReader* r, std::unordered_map<TaskId, bool>* bits);

}  // namespace internal

/// Write attempts per WriteCheckpointFile call before giving up: transient
/// I/O errors (and injected kCheckpointWriteError faults at specific
/// attempts) are retried from scratch, each attempt a fresh tmp write.
inline constexpr int kCheckpointWriteAttempts = 3;

/// \brief Atomically replaces `path` with `data`: writes `path`.tmp,
/// flushes and fsyncs it, renames over `path`, then fsyncs the containing
/// directory so the rename itself is durable. A crash mid-write leaves
/// either the previous checkpoint or a stray .tmp — never a half-written
/// file under the final name. I/O failures are retried up to
/// kCheckpointWriteAttempts times before the last error is returned.
/// Honors injected faults: kCheckpointWriteError fails one attempt;
/// kCheckpointTornWrite truncates the payload mid-write and "succeeds",
/// modeling a lying disk — readers reject the torn file via its CRCs.
Status WriteCheckpointFile(const std::string& path, const std::string& data);

/// \brief Reads the whole file at `path` into `data`.
Status ReadCheckpointFile(const std::string& path, std::string* data);

/// \brief Keep-last-N checkpoint rotation: scans `dir` for files named
/// `prefix<number>.ckpt`, keeps the `keep` highest-numbered ones, and
/// removes the rest (prune AFTER the newest file was atomically renamed
/// into place, so the retained set never passes through a state with
/// fewer than `keep` good checkpoints). Files whose name does not parse
/// as `prefix<number>.ckpt` are left alone. `removed`, when non-null, is
/// cleared and receives the full paths pruned, oldest first. `keep` must
/// be >= 1.
Status PruneCheckpointFiles(const std::string& dir, const std::string& prefix,
                            int keep, std::vector<std::string>* removed);

}  // namespace maps
