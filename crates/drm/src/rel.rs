//! The Rights Expression Language (REL): permissions and constraints that
//! govern how protected content may be used.
//!
//! OMA DRM 2 defines the REL in its own specification document; the subset
//! modelled here covers the permission verbs and the constraint types that
//! matter for the paper's use cases (unlimited play for the music track,
//! per-access counting for the ringtone if desired, datetime and interval
//! constraints for expiry scenarios).

use oma_pki::codec::{Decode, DecodeError, Encode, Reader};
use oma_pki::{Timestamp, ValidityPeriod};

/// A usage permission verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Render the content as audio/video.
    Play,
    /// Render the content visually (images).
    Display,
    /// Execute the content (applications, e.g. Java games).
    Execute,
    /// Print the content.
    Print,
    /// Export to another DRM system.
    Export,
}

impl Permission {
    /// All permission verbs.
    pub const ALL: [Permission; 5] = [
        Permission::Play,
        Permission::Display,
        Permission::Execute,
        Permission::Print,
        Permission::Export,
    ];

    /// Stable single-byte encoding used in the canonical Rights Object form.
    pub fn code(&self) -> u8 {
        match self {
            Permission::Play => 1,
            Permission::Display => 2,
            Permission::Execute => 3,
            Permission::Print => 4,
            Permission::Export => 5,
        }
    }

    /// REL element name.
    pub fn name(&self) -> &'static str {
        match self {
            Permission::Play => "play",
            Permission::Display => "display",
            Permission::Execute => "execute",
            Permission::Print => "print",
            Permission::Export => "export",
        }
    }
}

impl std::fmt::Display for Permission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A constraint attached to a permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// No constraint: unlimited use within the RO lifetime.
    Unconstrained,
    /// At most `count` uses.
    Count(u32),
    /// Usable only inside the given absolute time window.
    Datetime(ValidityPeriod),
    /// Usable for `seconds` after the first use.
    Interval(u64),
}

impl Constraint {
    /// Stable byte encoding used in the canonical Rights Object form: the
    /// codec encoding, which is also the constraint's wire and journal form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        self.encode(&mut out);
        out
    }
}

impl Encode for Permission {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }
}

impl Decode for Permission {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let code = r.u8()?;
        Permission::ALL
            .into_iter()
            .find(|p| p.code() == code)
            .ok_or(DecodeError("unknown permission"))
    }
}

impl Encode for Constraint {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Constraint::Unconstrained => out.push(0),
            Constraint::Count(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Constraint::Datetime(window) => {
                out.push(2);
                window.encode(out);
            }
            Constraint::Interval(secs) => {
                out.push(3);
                out.extend_from_slice(&secs.to_be_bytes());
            }
        }
    }
}

impl Decode for Constraint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Constraint::Unconstrained,
            1 => Constraint::Count(r.u32()?),
            2 => Constraint::Datetime(Decode::decode(r)?),
            3 => Constraint::Interval(r.u64()?),
            _ => return Err(DecodeError("unknown constraint")),
        })
    }
}

/// One `<permission>` element: a verb plus its constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PermissionGrant {
    /// The granted verb.
    pub permission: Permission,
    /// The attached constraint.
    pub constraint: Constraint,
}

/// The full set of grants carried by a Rights Object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rights {
    grants: Vec<PermissionGrant>,
}

impl Rights {
    /// An empty agreement (grants nothing).
    pub fn new() -> Self {
        Rights { grants: Vec::new() }
    }

    /// Adds a grant.
    pub fn grant(mut self, permission: Permission, constraint: Constraint) -> Self {
        self.grants.push(PermissionGrant {
            permission,
            constraint,
        });
        self
    }

    /// All grants.
    pub fn grants(&self) -> &[PermissionGrant] {
        &self.grants
    }

    /// Looks up the constraint for `permission`, if granted.
    pub fn constraint_for(&self, permission: Permission) -> Option<Constraint> {
        self.grants
            .iter()
            .find(|g| g.permission == permission)
            .map(|g| g.constraint)
    }

    /// Whether `permission` is granted at all.
    pub fn permits(&self, permission: Permission) -> bool {
        self.constraint_for(permission).is_some()
    }

    /// Canonical byte encoding included in the MAC-protected Rights Object.
    /// Not the codec encoding: this is the XML-like `<rights>` element whose
    /// size the paper's HMAC cost model charges, so it keeps its tags and
    /// carries no grant count.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.grants.len() * 24);
        out.extend_from_slice(b"<rights>");
        for grant in &self.grants {
            grant.permission.encode(&mut out);
            grant.constraint.encode(&mut out);
        }
        out.extend_from_slice(b"</rights>");
        out
    }
}

impl Encode for Rights {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.grants.len() as u32).to_be_bytes());
        for grant in &self.grants {
            grant.permission.encode(out);
            grant.constraint.encode(out);
        }
    }
}

impl Decode for Rights {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // A grant is at least a permission byte and a constraint tag.
        let grants = r.list(2, |r| {
            Ok(PermissionGrant {
                permission: Decode::decode(r)?,
                constraint: Decode::decode(r)?,
            })
        })?;
        Ok(Rights { grants })
    }
}

/// A reusable rights template held by the Rights Issuer for a piece of
/// content ("the license on sale").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RightsTemplate {
    rights: Rights,
}

impl RightsTemplate {
    /// A template granting `permission` without constraint.
    pub fn unlimited(permission: Permission) -> Self {
        RightsTemplate {
            rights: Rights::new().grant(permission, Constraint::Unconstrained),
        }
    }

    /// A template granting `permission` at most `count` times.
    pub fn counted(permission: Permission, count: u32) -> Self {
        RightsTemplate {
            rights: Rights::new().grant(permission, Constraint::Count(count)),
        }
    }

    /// A template granting `permission` inside a time window.
    pub fn timed(permission: Permission, window: ValidityPeriod) -> Self {
        RightsTemplate {
            rights: Rights::new().grant(permission, Constraint::Datetime(window)),
        }
    }

    /// A template built from an explicit [`Rights`] value.
    pub fn from_rights(rights: Rights) -> Self {
        RightsTemplate { rights }
    }

    /// The rights this template instantiates.
    pub fn rights(&self) -> &Rights {
        &self.rights
    }
}

/// The mutable usage state the DRM Agent keeps per installed Rights Object
/// (remaining counts, interval anchors). OMA DRM calls this "state
/// information" and requires it to live in integrity-protected storage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UsageState {
    remaining_count: Option<u32>,
    first_use: Option<Timestamp>,
}

impl UsageState {
    /// Initialises state for `rights` (copies initial counts).
    pub fn for_rights(rights: &Rights, permission: Permission) -> Self {
        match rights.constraint_for(permission) {
            Some(Constraint::Count(n)) => UsageState {
                remaining_count: Some(n),
                first_use: None,
            },
            _ => UsageState::default(),
        }
    }

    /// Remaining uses, if count-constrained.
    pub fn remaining_count(&self) -> Option<u32> {
        self.remaining_count
    }

    /// Time of first use, if any.
    pub fn first_use(&self) -> Option<Timestamp> {
        self.first_use
    }

    /// Checks the constraint at `now` and, if permitted, consumes one use.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the constraint forbids the access; the state is
    /// left unchanged in that case.
    #[allow(clippy::result_unit_err)]
    pub fn check_and_consume(&mut self, constraint: Constraint, now: Timestamp) -> Result<(), ()> {
        match constraint {
            Constraint::Unconstrained => Ok(()),
            Constraint::Count(_) => {
                let remaining = self.remaining_count.unwrap_or(0);
                if remaining == 0 {
                    return Err(());
                }
                self.remaining_count = Some(remaining - 1);
                Ok(())
            }
            Constraint::Datetime(window) => {
                if window.contains(now) {
                    Ok(())
                } else {
                    Err(())
                }
            }
            Constraint::Interval(seconds) => {
                let anchor = *self.first_use.get_or_insert(now);
                if now.seconds().saturating_sub(anchor.seconds()) <= seconds {
                    Ok(())
                } else {
                    Err(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permission_codes_unique() {
        let mut codes: Vec<u8> = Permission::ALL.iter().map(|p| p.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Permission::ALL.len());
        assert_eq!(Permission::Play.to_string(), "play");
    }

    #[test]
    fn rights_lookup() {
        let rights = Rights::new()
            .grant(Permission::Play, Constraint::Count(5))
            .grant(Permission::Display, Constraint::Unconstrained);
        assert!(rights.permits(Permission::Play));
        assert!(rights.permits(Permission::Display));
        assert!(!rights.permits(Permission::Print));
        assert_eq!(
            rights.constraint_for(Permission::Play),
            Some(Constraint::Count(5))
        );
        assert_eq!(rights.grants().len(), 2);
    }

    #[test]
    fn canonical_encoding_distinguishes_rights() {
        let a = Rights::new().grant(Permission::Play, Constraint::Count(5));
        let b = Rights::new().grant(Permission::Play, Constraint::Count(6));
        let c = Rights::new().grant(Permission::Display, Constraint::Count(5));
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.to_bytes(), c.to_bytes());
        assert_eq!(a.to_bytes(), a.to_bytes());
        assert!(Rights::new().to_bytes().len() >= 17);
    }

    #[test]
    fn templates() {
        assert!(RightsTemplate::unlimited(Permission::Play)
            .rights()
            .permits(Permission::Play));
        assert_eq!(
            RightsTemplate::counted(Permission::Play, 3)
                .rights()
                .constraint_for(Permission::Play),
            Some(Constraint::Count(3))
        );
        let window = ValidityPeriod::new(Timestamp::new(0), Timestamp::new(10));
        assert_eq!(
            RightsTemplate::timed(Permission::Display, window)
                .rights()
                .constraint_for(Permission::Display),
            Some(Constraint::Datetime(window))
        );
        let custom = RightsTemplate::from_rights(
            Rights::new().grant(Permission::Print, Constraint::Unconstrained),
        );
        assert!(custom.rights().permits(Permission::Print));
    }

    #[test]
    fn count_constraint_decrements_and_exhausts() {
        let rights = Rights::new().grant(Permission::Play, Constraint::Count(2));
        let mut state = UsageState::for_rights(&rights, Permission::Play);
        let c = rights.constraint_for(Permission::Play).unwrap();
        assert_eq!(state.remaining_count(), Some(2));
        assert!(state.check_and_consume(c, Timestamp::new(0)).is_ok());
        assert!(state.check_and_consume(c, Timestamp::new(1)).is_ok());
        assert_eq!(state.remaining_count(), Some(0));
        assert!(state.check_and_consume(c, Timestamp::new(2)).is_err());
    }

    #[test]
    fn datetime_constraint_enforced() {
        let window = ValidityPeriod::new(Timestamp::new(100), Timestamp::new(200));
        let mut state = UsageState::default();
        let c = Constraint::Datetime(window);
        assert!(state.check_and_consume(c, Timestamp::new(99)).is_err());
        assert!(state.check_and_consume(c, Timestamp::new(150)).is_ok());
        assert!(state.check_and_consume(c, Timestamp::new(201)).is_err());
    }

    #[test]
    fn interval_constraint_anchors_on_first_use() {
        let mut state = UsageState::default();
        let c = Constraint::Interval(50);
        assert!(state.check_and_consume(c, Timestamp::new(1000)).is_ok());
        assert_eq!(state.first_use(), Some(Timestamp::new(1000)));
        assert!(state.check_and_consume(c, Timestamp::new(1050)).is_ok());
        assert!(state.check_and_consume(c, Timestamp::new(1051)).is_err());
    }

    #[test]
    fn unconstrained_never_fails() {
        let mut state = UsageState::default();
        for t in 0..100 {
            assert!(state
                .check_and_consume(Constraint::Unconstrained, Timestamp::new(t))
                .is_ok());
        }
    }
}
