//! Domains: groups of devices that share licenses.
//!
//! A user may register several devices (including "unconnected devices" like
//! portable music players) into a domain. The Rights Issuer hands every
//! member a shared symmetric domain key using a PKI exchange; Domain Rights
//! Objects protect `K_MAC ‖ K_REK` under that domain key instead of a single
//! device's public key, so any member can install and consume them.

use std::collections::HashSet;
use std::fmt;

/// Identifier of a domain, unique per Rights Issuer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(String);

impl DomainId {
    /// Creates a domain identifier.
    pub fn new(id: &str) -> Self {
        DomainId(id.to_string())
    }

    /// The identifier string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DomainId {
    fn from(s: &str) -> Self {
        DomainId::new(s)
    }
}

/// Rights Issuer side state of a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    id: DomainId,
    key: [u8; 16],
    generation: u32,
    members: HashSet<String>,
    max_members: usize,
}

impl Domain {
    /// Creates a new domain with the given shared key.
    pub fn new(id: DomainId, key: [u8; 16], max_members: usize) -> Self {
        Domain {
            id,
            key,
            generation: 0,
            members: HashSet::new(),
            max_members,
        }
    }

    /// The domain identifier.
    pub fn id(&self) -> &DomainId {
        &self.id
    }

    /// The current domain key.
    pub fn key(&self) -> &[u8; 16] {
        &self.key
    }

    /// Domain-key generation, bumped on every upgrade (member eviction).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Registered member device identifiers.
    pub fn members(&self) -> impl Iterator<Item = &str> {
        self.members.iter().map(String::as_str)
    }

    /// Number of registered members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Member capacity.
    pub fn max_members(&self) -> usize {
        self.max_members
    }

    /// Whether `device_id` is a member.
    pub fn is_member(&self, device_id: &str) -> bool {
        self.members.contains(device_id)
    }

    /// Adds a member if the domain still has capacity.
    ///
    /// Returns `false` (and leaves the domain unchanged) when the domain is
    /// full or the device is already a member.
    pub fn add_member(&mut self, device_id: &str) -> bool {
        if self.members.len() >= self.max_members || self.members.contains(device_id) {
            return false;
        }
        self.members.insert(device_id.to_string());
        true
    }

    /// Removes a member. Returns whether it was present.
    pub fn remove_member(&mut self, device_id: &str) -> bool {
        self.members.remove(device_id)
    }

    /// Whether `device_id` may hold a membership: it already does, or the
    /// domain has room for one more.
    pub(crate) fn admits(&self, device_id: &str) -> bool {
        self.is_member(device_id) || self.members.len() < self.max_members
    }

    /// Records `device_id` as a member without a capacity check — the
    /// service's join rule, applied once the join was admitted (live) or
    /// already acknowledged (replay).
    pub(crate) fn admit(&mut self, device_id: &str) {
        if !self.is_member(device_id) {
            self.members.insert(device_id.to_string());
        }
    }

    /// Installs a creation's key and capacity on a domain that already
    /// exists, keeping its members and generation.
    pub(crate) fn merge_creation(&mut self, key: [u8; 16], max_members: usize) {
        self.key = key;
        self.max_members = max_members;
    }

    /// Rebuilds a domain from persisted state — key, generation and member
    /// set exactly as a snapshot recorded them. This is the recovery path;
    /// use [`Domain::new`] for fresh domains.
    pub fn restore(
        id: DomainId,
        key: [u8; 16],
        generation: u32,
        members: impl IntoIterator<Item = String>,
        max_members: usize,
    ) -> Self {
        Domain {
            id,
            key,
            generation,
            members: members.into_iter().collect(),
            max_members,
        }
    }

    /// Rotates the domain key (a "domain upgrade"): installs `new_key` and
    /// bumps the generation. Existing members must re-join to learn the new
    /// key.
    pub fn upgrade(&mut self, new_key: [u8; 16]) {
        self.key = new_key;
        self.generation += 1;
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_id_display_and_from() {
        let id = DomainId::from("family");
        assert_eq!(id.as_str(), "family");
        assert_eq!(id.to_string(), "family");
        assert_eq!(id, DomainId::new("family"));
    }

    #[test]
    fn membership_lifecycle() {
        let mut d = Domain::new(DomainId::new("d1"), [1u8; 16], 2);
        assert_eq!(d.member_count(), 0);
        assert!(d.add_member("phone"));
        assert!(!d.add_member("phone"), "duplicate join refused");
        assert!(d.add_member("player"));
        assert!(!d.add_member("tablet"), "domain full");
        assert!(d.is_member("phone"));
        assert_eq!(d.member_count(), 2);
        assert!(d.remove_member("phone"));
        assert!(!d.remove_member("phone"));
        assert_eq!(d.members().count(), 1);
    }

    #[test]
    fn upgrade_rotates_key_and_clears_members() {
        let mut d = Domain::new(DomainId::new("d1"), [1u8; 16], 4);
        d.add_member("phone");
        let old_generation = d.generation();
        d.upgrade([2u8; 16]);
        assert_eq!(d.key(), &[2u8; 16]);
        assert_eq!(d.generation(), old_generation + 1);
        assert_eq!(d.member_count(), 0);
        assert_eq!(d.id().as_str(), "d1");
    }
}
