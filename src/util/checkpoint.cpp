#include "util/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;

namespace mummi::util {

namespace {
// Frame v2 ("MuMMICKP"): magic, size, checksum, payload. Read-compatible.
constexpr std::uint64_t kMagicV2 = 0x4d754d4d49434b50ULL;
// Frame v3 ("MuMMICK3"): magic, generation, size, checksum, payload. The
// generation is a per-path monotone counter so load() can pick the newest
// *complete* state among {path, .bak, .tmp} — a crash between the .bak
// rotation and the final rename leaves the newest frame only in .tmp, and
// without generations that frame was silently discarded for the older .bak.
constexpr std::uint64_t kMagicV3 = 0x4d754d4d49434b33ULL;
// Journal record ("MuMMIJR1"): magic, body size, fnv1a(body), body.
constexpr std::uint64_t kJournalMagic = 0x4d754d4d494a5231ULL;
constexpr std::size_t kJournalHeader = 3 * sizeof(std::uint64_t);
constexpr std::size_t kJournalBodyHeader = 3 * sizeof(std::uint64_t);

Bytes frame(const Bytes& payload, const CheckpointId& id) {
  ByteWriter w;
  w.u64(kMagicV3);
  w.u64(id.generation);
  w.u64(payload.size());
  w.u64(id.checksum);
  w.raw(payload.data(), payload.size());
  return std::move(w).take();
}

struct Unframed {
  Bytes payload;
  CheckpointId id;
};

std::optional<Unframed> unframe(const Bytes& raw) {
  try {
    ByteReader r(raw);
    const auto magic = r.u64();
    Unframed out;
    if (magic == kMagicV3) {
      out.id.generation = r.u64();
    } else if (magic != kMagicV2) {
      return std::nullopt;  // v2 frames carry generation 0
    }
    const auto size = r.u64();
    const auto checksum = r.u64();
    if (size > r.remaining()) return std::nullopt;
    out.payload.resize(size);
    r.raw(out.payload.data(), size);
    if (fnv1a(out.payload.data(), out.payload.size()) != checksum)
      return std::nullopt;
    out.id.checksum = checksum;
    return out;
  } catch (const FormatError&) {
    return std::nullopt;
  }
}

/// Reads just the generation from a frame header (no checksum validation):
/// cheap input to the next-generation counter. A torn frame can only inflate
/// the counter (harmless — generations stay monotone); it can never win a
/// load(), which demands a valid checksum.
std::uint64_t peek_generation(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!in || magic != kMagicV3) return 0;
  std::uint64_t gen = 0;
  in.read(reinterpret_cast<char*>(&gen), sizeof gen);
  return in ? gen : 0;
}
}  // namespace

std::optional<Bytes> read_file(const std::string& path) {
  // Only regular files have a byte size; a directory opens fine on Linux and
  // seek-to-end then reports a nonsense offset (huge or -1 depending on the
  // filesystem) that the unchecked cast below turned into a giant
  // allocation. Anything else is a read failure, same as a vanished file.
  std::error_code ec;
  if (!fs::is_regular_file(fs::status(path, ec)) || ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (!in || end < 0) return std::nullopt;
  const auto size = static_cast<std::size_t>(end);
  in.seekg(0);
  Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in) return std::nullopt;
  return data;
}

void write_file(const std::string& path, const Bytes& data,
                const IoRetryPolicy& retry) {
  Rng jitter_rng(retry.jitter_seed ^ fnv1a(path));
  const SleepFn& sleep = retry.sleep ? retry.sleep : wall_sleeper();
  int attempt = 0;
  crash_point("util.write_file.pre");
  const bool ok = retry_with_backoff(retry.backoff, jitter_rng, sleep, [&] {
    if (attempt > 0) log_warn("write retry ", attempt, " for ", path);
    ++attempt;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    // The torn window: the file is truncated, the payload is not yet down.
    // Callers that need atomicity write a sibling temp and rename (see
    // CheckpointFile::save, FsStore::put); this point proves they do.
    crash_point("util.write_file.mid");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    return static_cast<bool>(out);
  });
  if (!ok) throw IoError("write failed after retries: " + path);
  crash_point("util.write_file.post");
}

void write_file(const std::string& path, const Bytes& data, int max_retries) {
  IoRetryPolicy retry;
  retry.backoff.max_attempts = max_retries + 1;
  write_file(path, data, retry);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw IoError("mkdir failed: " + path + ": " + ec.message());
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec);
}

CheckpointFile::CheckpointFile(std::string path, IoRetryPolicy retry)
    : path_(std::move(path)), retry_(std::move(retry)) {}

CheckpointFile::CheckpointFile(std::string path, int max_retries)
    : path_(std::move(path)) {
  retry_.backoff.max_attempts = max_retries + 1;
}

std::uint64_t CheckpointFile::next_generation() const {
  if (!gen_known_) {
    // Fresh handle over existing state (restart): resume the counter past
    // every candidate, torn or not, so generations never move backwards.
    gen_ = std::max({peek_generation(path_), peek_generation(path_ + ".bak"),
                     peek_generation(path_ + ".tmp")});
    gen_known_ = true;
  }
  return ++gen_;
}

CheckpointId CheckpointFile::save(const Bytes& payload) const {
  const CheckpointId id{next_generation(),
                        fnv1a(payload.data(), payload.size())};
  const Bytes framed = frame(payload, id);
  const std::string tmp = path_ + ".tmp";
  crash_point("ckpt.save.pre_tmp");
  write_file(tmp, framed, retry_);
  crash_point("ckpt.save.post_tmp");
  std::error_code ec;
  // Rotate the old checkpoint to .bak before the atomic replace. A crash
  // anywhere in this window loses no state: the newest complete frame sits
  // in .tmp and outranks .bak by generation on the next load().
  if (fs::exists(path_)) {
    fs::rename(path_, path_ + ".bak", ec);
    if (ec) log_warn("checkpoint backup rotation failed: ", ec.message());
  }
  crash_point("ckpt.save.post_bak");
  fs::rename(tmp, path_, ec);
  if (ec) throw IoError("checkpoint rename failed: " + path_ + ": " + ec.message());
  crash_point("ckpt.save.post_rename");
  persist_event("ckpt.generations");
  return id;
}

std::optional<Bytes> CheckpointFile::load() const {
  auto got = load_latest();
  if (!got) return std::nullopt;
  return std::move(got->payload);
}

std::optional<LoadedCheckpoint> CheckpointFile::load_latest() const {
  // Highest valid generation wins; ties (legacy v2 frames are all
  // generation 0) keep the historical preference order primary > bak > tmp.
  struct Candidate {
    const char* label;
    std::string path;
  };
  const Candidate candidates[] = {{"primary", path_},
                                  {"bak", path_ + ".bak"},
                                  {"tmp", path_ + ".tmp"}};
  std::optional<Unframed> best;
  const char* winner = nullptr;
  for (const auto& c : candidates) {
    auto raw = read_file(c.path);
    if (!raw) continue;
    auto got = unframe(*raw);
    if (!got) continue;
    if (!best || got->id.generation > best->id.generation) {
      best = std::move(got);
      winner = c.label;
    }
  }
  if (!best) return std::nullopt;
  // Keep future saves ahead of whatever we just recovered.
  if (!gen_known_ || gen_ < best->id.generation) {
    gen_ = best->id.generation;
    gen_known_ = true;
  }
  if (winner != candidates[0].label) {
    log_warn("checkpoint primary invalid or stale, recovered generation ",
             best->id.generation, " from ", winner, ": ", path_);
    persist_event("ckpt.recovered_from");
  }
  return LoadedCheckpoint{std::move(best->payload), best->id};
}

bool CheckpointFile::exists() const {
  return fs::exists(path_) || fs::exists(path_ + ".bak") ||
         fs::exists(path_ + ".tmp");
}

void CheckpointFile::remove() const {
  remove_file(path_);
  remove_file(path_ + ".bak");
  remove_file(path_ + ".tmp");
}

CheckpointJournal::CheckpointJournal(std::string path, IoRetryPolicy retry)
    : path_(std::move(path)), retry_(std::move(retry)) {}

std::size_t CheckpointJournal::append(const CheckpointId& base,
                                      std::uint64_t seq,
                                      const Bytes& payload) const {
  ByteWriter body;
  body.u64(base.generation);
  body.u64(base.checksum);
  body.u64(seq);
  body.raw(payload.data(), payload.size());
  ByteWriter head;
  head.u64(kJournalMagic);
  head.u64(body.size());
  head.u64(fnv1a(body.data().data(), body.size()));
  const Bytes& b = body.data();
  // The torn window splits the body, so "mid" leaves a record whose header
  // promises more bytes than the file holds.
  const std::size_t split = b.size() / 2;

  std::error_code ec;
  const std::uintmax_t old_size =
      fs::exists(path_, ec) ? fs::file_size(path_, ec) : 0;
  Rng jitter_rng(retry_.jitter_seed ^ fnv1a(path_));
  const SleepFn& sleep = retry_.sleep ? retry_.sleep : wall_sleeper();
  int attempt = 0;
  crash_point("ckpt.journal.append.pre");
  const bool ok = retry_with_backoff(retry_.backoff, jitter_rng, sleep, [&] {
    if (attempt > 0) {
      log_warn("journal append retry ", attempt, " for ", path_);
      std::error_code trim;
      if (fs::exists(path_, trim)) fs::resize_file(path_, old_size, trim);
    }
    ++attempt;
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(head.data().data()),
              static_cast<std::streamsize>(head.size()));
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(split));
    out.flush();
    crash_point("ckpt.journal.append.mid");
    out.write(reinterpret_cast<const char*>(b.data() + split),
              static_cast<std::streamsize>(b.size() - split));
    out.flush();
    return static_cast<bool>(out);
  });
  if (!ok) throw IoError("journal append failed after retries: " + path_);
  crash_point("ckpt.journal.append.post");
  return head.size() + b.size();
}

void CheckpointJournal::reset() const { remove_file(path_); }

std::vector<Bytes> CheckpointJournal::scan(const CheckpointId& base) const {
  const auto raw = read_file(path_);
  if (!raw) return {};
  return parse(*raw, base);
}

std::vector<Bytes> CheckpointJournal::parse(const Bytes& raw,
                                            const CheckpointId& base) {
  std::vector<Bytes> out;
  std::size_t off = 0;
  const auto keep_prefix = [&] {
    log_warn("checkpoint journal: damaged record at offset ", off,
             ", keeping the ", out.size(), " records before it");
  };
  while (off < raw.size()) {
    // Every size is checked against the bytes actually present before
    // anything is read or allocated.
    const std::size_t left = raw.size() - off;
    if (left < kJournalHeader) {
      keep_prefix();
      break;
    }
    ByteReader h(raw.data() + off, kJournalHeader);
    const std::uint64_t magic = h.u64();
    const std::uint64_t size = h.u64();
    const std::uint64_t sum = h.u64();
    const std::uint8_t* body = raw.data() + off + kJournalHeader;
    if (magic != kJournalMagic || size < kJournalBodyHeader ||
        size > left - kJournalHeader ||
        fnv1a(body, static_cast<std::size_t>(size)) != sum) {
      keep_prefix();
      break;
    }
    ByteReader r(body, static_cast<std::size_t>(size));
    const CheckpointId id{r.u64(), r.u64()};
    const std::uint64_t seq = r.u64();
    if (id != base) {
      if (!out.empty())
        throw FormatError("checkpoint journal: record " + std::to_string(seq) +
                          " extends base generation " +
                          std::to_string(id.generation) +
                          " after records of generation " +
                          std::to_string(base.generation));
      log_warn("checkpoint journal extends base generation ", id.generation,
               ", not ", base.generation, "; ignoring it");
      break;
    }
    if (seq != out.size())
      throw FormatError("checkpoint journal: record seq " + std::to_string(seq) +
                        " where " + std::to_string(out.size()) + " was due");
    out.emplace_back(body + kJournalBodyHeader,
                     body + static_cast<std::size_t>(size));
    off += kJournalHeader + static_cast<std::size_t>(size);
  }
  return out;
}

}  // namespace mummi::util
