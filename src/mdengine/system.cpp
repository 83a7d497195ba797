#include "mdengine/system.hpp"

#include <cstddef>
#include <cstdint>

namespace mummi::md {

void System::zero_momentum() {
  if (size() == 0) return;
  Vec3 p{};
  real m_total = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    p += mass[i] * vel[i];
    m_total += mass[i];
  }
  const Vec3 v_cm = (1.0 / m_total) * p;
  for (auto& v : vel) v -= v_cm;
}

util::Bytes System::serialize() const {
  util::ByteWriter w;
  w.f64(box.length.x);
  w.f64(box.length.y);
  w.f64(box.length.z);
  w.vec(pos);
  w.vec(vel);
  w.vec(mass);
  w.vec(charge);
  w.vec(type);
  w.vec(molecule);
  w.vec(bonds);
  // Angle has 4 padding bytes after k; a raw copy would leak them. Write the
  // same 32-byte record (the layout deserialize's vec<Angle> reads) field by
  // field with the padding zeroed, so equal systems serialize identically.
  static_assert(sizeof(Angle) == 32 && offsetof(Angle, theta0) == 16);
  w.u64(angles.size());
  for (const Angle& a : angles) {
    w.u32(static_cast<std::uint32_t>(a.i));
    w.u32(static_cast<std::uint32_t>(a.j));
    w.u32(static_cast<std::uint32_t>(a.k));
    w.u32(0);
    w.f64(a.theta0);
    w.f64(a.ktheta);
  }
  return std::move(w).take();
}

System System::deserialize(const util::Bytes& data) {
  util::ByteReader r(data);
  System s;
  s.box.length.x = r.f64();
  s.box.length.y = r.f64();
  s.box.length.z = r.f64();
  s.pos = r.vec<Vec3>();
  s.vel = r.vec<Vec3>();
  s.mass = r.vec<real>();
  s.charge = r.vec<real>();
  s.type = r.vec<int>();
  s.molecule = r.vec<int>();
  s.bonds = r.vec<Bond>();
  s.angles = r.vec<Angle>();
  s.force.assign(s.pos.size(), Vec3{});
  return s;
}

}  // namespace mummi::md
