#include "mpisim/hp_ops.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/hp_kernel.hpp"
#include "mpisim/wire.hpp"

namespace hpsum::mpisim {

namespace {

/// Bytes of the widest HP value's limb image: the stack staging of
/// reduce_hp_value and allreduce_hp_value.
constexpr std::size_t kMaxValueBytes = kMaxLimbs * sizeof(util::Limb);

/// HP formats wider than kMaxLimbs have no HpDyn and overflow the combine's
/// stack staging.
void check_limbs(HpConfig cfg) {
  validate(cfg);
  if (cfg.n > kMaxLimbs) {
    throw std::length_error("mpisim: HP limb count exceeds kMaxLimbs");
  }
}

std::shared_ptr<const WireCodec> make_sparse_codec(int n) {
  auto codec = std::make_shared<WireCodec>();
  codec->name = "hp-sparse{" + std::to_string(n) + "}";
  codec->bound = [n](std::size_t count) {
    return wire::encoded_bound(n, count);
  };
  codec->encode = [n](const std::byte* raw, std::size_t count,
                      std::uint8_t status, std::byte* out) {
    return wire::encode_into(raw, count, n, status, out);
  };
  codec->decode = [n](const std::byte* msg, std::size_t msg_bytes,
                      std::byte* raw, std::size_t count) {
    return wire::decode(msg, msg_bytes, raw, count, n);
  };
  return codec;
}

}  // namespace

std::shared_ptr<const WireCodec> hp_sparse_codec(HpConfig cfg) {
  check_limbs(cfg);
  // A WireCodec holds no state, so one immutable codec per limb count,
  // built on first use, serves every op, rank and thread.
  static const auto codecs = [] {
    std::array<std::shared_ptr<const WireCodec>, kMaxLimbs + 1> all;
    for (int n = 1; n <= kMaxLimbs; ++n) {
      all[static_cast<std::size_t>(n)] = make_sparse_codec(n);
    }
    return all;
  }();
  return codecs[static_cast<std::size_t>(cfg.n)];
}

Datatype hp_datatype(HpConfig cfg) {
  validate(cfg);
  return Datatype::contiguous(
      static_cast<std::size_t>(cfg.n) * sizeof(util::Limb),
      "hp{" + std::to_string(cfg.n) + "," + std::to_string(cfg.k) + "}");
}

Op hp_sum_op(HpConfig cfg, Wire wire) {
  check_limbs(cfg);
  const int n = cfg.n;
  auto sticky_cell = std::make_shared<std::atomic<std::uint8_t>>(0);
  // A plain pointer to the mask, kept alive by op.sticky_status: with n it
  // fits std::function's inline storage, so building the op allocates
  // only the mask.
  std::atomic<std::uint8_t>* sticky = sticky_cell.get();
  Op op;
  op.fn = [n, sticky](std::byte* inout, const std::byte* in) {
    // memcpy in/out of aligned scratch: message buffers carry no
    // alignment guarantee, and this models real (de)serialization.
    util::Limb a[kMaxLimbs];
    util::Limb b[kMaxLimbs];
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(util::Limb);
    std::memcpy(a, inout, bytes);
    std::memcpy(b, in, bytes);
    // The combine can overflow like any HP add; keep the flag, don't drop it.
    const HpStatus st = kernel::add(a, b, n);
    if (st != HpStatus::kOk) {
      sticky->fetch_or(static_cast<std::uint8_t>(st),
                       std::memory_order_relaxed);
    }
    std::memcpy(inout, a, bytes);
  };
  op.name = "hp-sum";
  op.sticky_status = std::move(sticky_cell);
  if (wire == Wire::kSparse) op.codec = hp_sparse_codec(cfg);
  return op;
}

Datatype hp_status_datatype() {
  return Datatype::contiguous(1, "hp-status");
}

Op hp_status_or_op() {
  Op op;
  op.fn = [](std::byte* inout, const std::byte* in) { *inout |= *in; };
  op.name = "hp-status-or";
  return op;
}

Datatype hallberg_datatype(HallbergParams p) {
  return Datatype::contiguous(
      static_cast<std::size_t>(p.n) * sizeof(std::int64_t),
      "hallberg{" + std::to_string(p.n) + "," + std::to_string(p.m) + "}");
}

Op hallberg_sum_op(HallbergParams p) {
  const int n = p.n;
  Op op;
  op.fn = [n](std::byte* inout, const std::byte* in) {
    std::int64_t a[kMaxLimbs];
    std::int64_t b[kMaxLimbs];
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::int64_t);
    std::memcpy(a, inout, bytes);
    std::memcpy(b, in, bytes);
    for (int i = 0; i < n; ++i) {
      a[i] = hpsum::detail::wrap_add_i64(a[i], b[i]);
    }
    std::memcpy(inout, a, bytes);
  };
  op.name = "hallberg-sum";
  return op;
}

Op f64_sum_op() {
  Op op;
  op.fn = [](std::byte* inout, const std::byte* in) {
    double a = 0;
    double b = 0;
    std::memcpy(&a, inout, sizeof a);
    std::memcpy(&b, in, sizeof b);
    a += b;  // hplint: allow(fp-accumulate) — the order-sensitive double baseline op
    std::memcpy(inout, &a, sizeof a);
  };
  op.name = "f64-sum";
  return op;
}

HpDyn reduce_hp_value(Comm& comm, const HpDyn& local, int root,
                      ReduceAlgo algo, Wire wire) {
  const HpConfig cfg = local.config();
  std::byte send[kMaxValueBytes];
  std::byte recv[kMaxValueBytes];
  local.to_bytes(send);
  Op op = hp_sum_op(cfg, wire);

  if (wire == Wire::kSparse) {
    // The codec folds the status mask into every value message, so the
    // deposit-phase flags ride along (seed_status) and one reduction moves
    // both limbs and status; the root's Op mask ends up as the global OR.
    op.seed_status = static_cast<std::uint8_t>(local.status());
    comm.reduce(send, recv, 1, hp_datatype(cfg), op, root, algo);
    HpDyn out(cfg);
    if (comm.rank() == root) {
      out.from_bytes(recv);
      out.or_status(static_cast<HpStatus>(op.observed_status()));
    } else {
      out = local;
    }
    return out;
  }

  comm.reduce(send, recv, 1, hp_datatype(cfg), op, root, algo);

  // The raw wire format carries limbs only, and combine steps run on
  // whichever rank the algorithm places them on — so the status masks have
  // to be reduced too (a 1-byte sticky OR) or a kAddOverflow seen by an
  // interior tree rank would vanish. This is the order-invariance
  // contract's "no silently dropped flag" rule applied to the network.
  std::byte st_send{static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(local.status()) | op.observed_status())};
  std::byte st_recv{0};
  comm.reduce(&st_send, &st_recv, 1, hp_status_datatype(), hp_status_or_op(),
              root, algo);

  HpDyn out(cfg);
  if (comm.rank() == root) {
    out.from_bytes(recv);
    out.or_status(static_cast<HpStatus>(st_recv));
  } else {
    out = local;
  }
  return out;
}

HpDyn allreduce_hp_value(Comm& comm, const HpDyn& local, ReduceAlgo algo,
                         Wire wire) {
  const HpConfig cfg = local.config();
  std::byte send[kMaxValueBytes];
  std::byte recv[kMaxValueBytes];
  local.to_bytes(send);
  Op op = hp_sum_op(cfg, wire);

  HpDyn out(cfg);
  if (wire == Wire::kSparse) {
    op.seed_status = static_cast<std::uint8_t>(local.status());
    comm.allreduce(send, recv, 1, hp_datatype(cfg), op, algo);
    out.from_bytes(recv);
    out.or_status(static_cast<HpStatus>(op.observed_status()));
    return out;
  }

  comm.allreduce(send, recv, 1, hp_datatype(cfg), op, algo);
  std::byte st_send{static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(local.status()) | op.observed_status())};
  std::byte st_recv{0};
  comm.allreduce(&st_send, &st_recv, 1, hp_status_datatype(),
                 hp_status_or_op(), algo);
  out.from_bytes(recv);
  out.or_status(static_cast<HpStatus>(st_recv));
  return out;
}

}  // namespace hpsum::mpisim
